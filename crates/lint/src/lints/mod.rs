//! The lint registry and shared token-stream helpers.
//!
//! Every lint but one is a pure function from a [`FileContext`] to
//! findings; `unreached-pub` reads the whole workspace at once. The
//! registry is the single source of truth for lint names, descriptions, and
//! dispatch — `rm-lint --list`, the JSON `counts` object, and DESIGN.md all
//! enumerate the same set.

pub mod float_reduce;
pub mod nondet_iter;
pub mod panic_path;
pub mod rng_discipline;
pub mod scoped_threads;
pub mod unreached_pub;
pub mod unsafe_audit;
pub mod wallclock;

use std::path::Path;

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// A registered lint.
pub struct LintDef {
    /// Stable kebab-case name (used in pragmas and JSON).
    pub name: &'static str,
    /// One-line description for `--list` and docs.
    pub description: &'static str,
    /// The check itself.
    pub check: Check,
}

/// How a lint runs.
pub enum Check {
    /// Once per file, on that file alone.
    File(fn(&FileContext, &mut Vec<Finding>)),
    /// Once per workspace, over its whole tree.
    Workspace(fn(&Path, &mut Vec<Finding>) -> std::io::Result<()>),
}

/// All lints, in reporting order.
pub const REGISTRY: &[LintDef] = &[
    LintDef {
        name: "nondet-iter",
        description: "HashMap/HashSet in non-test result-affecting code: iteration order is \
                      nondeterministic; use BTreeMap/BTreeSet or a sorted Vec, or waive with an \
                      order-independence argument",
        check: Check::File(nondet_iter::check),
    },
    LintDef {
        name: "rng-discipline",
        description: "raw seed arithmetic (seed ^ i, seed + i, …) or RNG construction from \
                      ad-hoc mixed seeds; derive streams via rm_graph::seed::stream_seed chained \
                      mixing instead",
        check: Check::File(rng_discipline::check),
    },
    LintDef {
        name: "panic-path",
        description: "unwrap/expect/panic-family/assert or computed indexing on the hot-path \
                      allowlist; each surviving use needs an // INVARIANT: comment (file-scope \
                      // INVARIANT(indexing): for indexing)",
        check: Check::File(panic_path::check),
    },
    LintDef {
        name: "wallclock-in-results",
        description: "Instant/SystemTime reachable from artifact-producing code outside the \
                      rm-bench timing modules; results must be functions of the seed only",
        check: Check::File(wallclock::check),
    },
    LintDef {
        name: "float-reduce",
        description: "f32/f64 accumulation inside a thread::scope body without a documented \
                      fixed merge order (// MERGE ORDER: …); reductions must not depend on \
                      thread scheduling",
        check: Check::File(float_reduce::check),
    },
    LintDef {
        name: "unsafe-audit",
        description: "the workspace is structurally unsafe-free: any `unsafe` token, or a crate \
                      root missing #![forbid(unsafe_code)] (not waivable)",
        check: Check::File(unsafe_audit::check),
    },
    LintDef {
        name: "scoped-threads",
        description: "thread::scope/spawn/Builder in non-test code outside rm_graph::par; every \
                      fan-out runs through its one block scheduler",
        check: Check::File(scoped_threads::check),
    },
    LintDef {
        name: "unreached-pub",
        description: "a bare `pub` item in library code whose name occurs nowhere outside its \
                      declaration, its own impl blocks, re-exports, comments and its file's \
                      tests; code nothing reaches gets deleted",
        check: Check::Workspace(unreached_pub::check_workspace),
    },
];

/// Flattened `(line_index, token)` view of a whole file, for analyses that
/// cross line boundaries (argument lists, scope bodies).
pub fn flatten(cx: &FileContext) -> Vec<(usize, Tok)> {
    cx.tokens
        .iter()
        .enumerate()
        .flat_map(|(li, ts)| ts.iter().map(move |t| (li, t.clone())))
        .collect()
}

/// Identifiers that never make an expression "variable": casts and
/// primitive type names.
pub fn is_type_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
    )
}

/// True if the token run contains an identifier that makes it a runtime
/// variable — anything other than numeric literals, casts, punctuation,
/// and SCREAMING_CASE constants (`seed ^ SALT` is sanctioned domain
/// separation, `seed ^ i` is not).
pub fn contains_variable(toks: &[(usize, Tok)]) -> bool {
    let is_const = |s: &str| {
        s.len() > 1
            && s.chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    };
    toks.iter()
        .any(|(_, t)| t.kind == TokKind::Ident && !is_type_keyword(&t.text) && !is_const(&t.text))
}

/// True if the token run mentions a seed-ish identifier (`seed` itself or a
/// `*_seed` derivation; deliberately *not* `seeds`/`seed_sets`, which are
/// seed-node collections, not RNG seeds).
pub fn contains_seed_ident(toks: &[(usize, Tok)]) -> bool {
    toks.iter()
        .any(|(_, t)| t.kind == TokKind::Ident && (t.text == "seed" || t.text.ends_with("_seed")))
}

/// Given `flat[open]` == `(`, returns the index of the matching `)`.
pub fn matching_paren(flat: &[(usize, Tok)], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, (_, t)) in flat.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// A binary-operator chain at one nesting level: operand runs separated by
/// `^`, `+`, or `*`.
pub struct Chain<'a> {
    /// Operand token runs.
    pub operands: Vec<&'a [(usize, Tok)]>,
    /// Flat index of the first token of the chain (for span reporting).
    pub start: usize,
}

/// Extracts operator chains from the token slice `flat[lo..hi]`, treating
/// parenthesized/bracketed groups as single operands. Barriers (`,`, `;`,
/// `=`, `{`, `}`, `<`, `>`, `&`, `|`, `!`, `?`, `.`-free — see below) end a
/// chain. Compound assignment (`+=` etc.) and unary `*`/`+` are not chain
/// operators.
pub fn chains<'a>(flat: &'a [(usize, Tok)], lo: usize, hi: usize) -> Vec<Chain<'a>> {
    let is_chain_op = |k: usize| -> bool {
        let t = &flat[k].1;
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "^" | "+" | "*") {
            return false;
        }
        // `+=`, `^=`, `*=` are assignments, not chains.
        if let Some((nl, nt)) = flat.get(k + 1) {
            if nt.text == "=" && *nl == flat[k].0 && nt.col == t.col + 1 {
                return false;
            }
        }
        // Unary deref/plus: no value-ish token on the left.
        if k == 0 || k <= lo {
            return false;
        }
        let (_, prev) = &flat[k - 1];
        matches!(prev.kind, TokKind::Ident | TokKind::Num)
            || matches!(prev.text.as_str(), ")" | "]")
    };

    let barrier = |t: &Tok| -> bool {
        t.kind == TokKind::Punct
            && matches!(
                t.text.as_str(),
                "," | ";" | "=" | "{" | "}" | "<" | ">" | "&" | "|" | "!" | "?" | ":"
            )
    };

    let mut out = Vec::new();
    let mut k = lo;
    while k < hi {
        if !is_chain_op(k) {
            k += 1;
            continue;
        }
        // Walk left to the chain start.
        let mut start = k;
        let mut depth = 0i32;
        while start > lo {
            let t = &flat[start - 1].1;
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && barrier(t) => break,
                _ => {}
            }
            start -= 1;
        }
        // Walk right to the chain end, collecting operator positions.
        let mut ops = Vec::new();
        let mut end = start;
        let mut depth = 0i32;
        let mut j = start;
        while j < hi {
            let t = &flat[j].1;
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && barrier(t) => break,
                _ => {
                    if depth == 0 && is_chain_op(j) {
                        ops.push(j);
                    }
                }
            }
            end = j + 1;
            j += 1;
        }
        if ops.is_empty() {
            k += 1;
            continue;
        }
        // Split into operand runs.
        let mut operands = Vec::new();
        let mut seg_start = start;
        for &op in &ops {
            if op > seg_start {
                operands.push(&flat[seg_start..op]);
            }
            seg_start = op + 1;
        }
        if end > seg_start {
            operands.push(&flat[seg_start..end]);
        }
        out.push(Chain { operands, start });
        k = end.max(k + 1);
    }
    out
}
