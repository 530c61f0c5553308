//! `panic-path` — panics and computed indexing on the hot-path allowlist.
//!
//! The allowlisted modules (`rrsets::{sampler,index,arena,opim}`,
//! `core::scalable`, `diffusion::{cascade,tic}`, `graph::par`) run inside
//! the sampling / selection inner loops; a panic there aborts a whole run
//! (and inside a `graph::par` fan-out, every worker). Flagged in non-test
//! code:
//!
//! * `.unwrap()` / `.expect(…)`,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` and the
//!   release-mode `assert!` family (`debug_assert*` is free),
//! * computed indexing `xs[i]` (a non-literal index expression).
//!
//! Each surviving panic site must justify itself with an `// INVARIANT:`
//! comment on the same line or within the four lines above (multi-line
//! method chains and comments need the slack). Computed
//! indexing is waived file-at-a-time: a single `// INVARIANT(indexing): …`
//! comment documents the file's bounds discipline (epoch-marked scratch
//! sized to `n`, CSR offsets by construction, …).

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::lints::{flatten, is_type_keyword};
use crate::Finding;

const NAME: &str = "panic-path";

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn check(cx: &FileContext, out: &mut Vec<Finding>) {
    if !cx.is_hot_path() {
        return;
    }
    let waived = |li: usize| cx.allowed(li, NAME) || cx.comment_near(li, 4, "INVARIANT");
    let flat = flatten(cx);
    let indexing_waiver = cx.comment_anywhere("INVARIANT(indexing)");

    for k in 0..flat.len() {
        let (li, t) = &flat[k];
        let li = *li;
        if cx.in_test[li] || t.kind != TokKind::Ident {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| flat[p].1.text.as_str());
        let next = flat.get(k + 1).map(|(_, n)| n.text.as_str());
        if (t.text == "unwrap" || t.text == "expect")
            && prev == Some(".")
            && next == Some("(")
            && !waived(li)
        {
            out.push(Finding::new(
                NAME,
                cx,
                li,
                t.col,
                format!(
                    ".{}() on a hot path; use an infallible construct or justify with an \
                     // INVARIANT: comment",
                    t.text
                ),
            ));
        } else if PANIC_MACROS.contains(&t.text.as_str())
            && next == Some("!")
            && prev != Some("!") // `debug_assert!` tokenizes separately; this guards `!= assert!`-style noise
            && !waived(li)
        {
            out.push(Finding::new(
                NAME,
                cx,
                li,
                t.col,
                format!(
                    "{}! can panic on a hot path; prove it unreachable with an // INVARIANT: \
                     comment or restructure",
                    t.text
                ),
            ));
        }
    }

    // Computed indexing. `[` counts when it follows a value (identifier,
    // `)`, `]`) — attribute (`#[`), macro (`vec![`), type (`: [u8; 4]`) and
    // slice-pattern brackets all follow non-value tokens.
    for k in 1..flat.len() {
        let (li, t) = &flat[k];
        let li = *li;
        if cx.in_test[li] || t.text != "[" {
            continue;
        }
        let prev = &flat[k - 1].1;
        let value_ctx = matches!(prev.kind, TokKind::Ident if !is_keywordish(&prev.text))
            || prev.text == ")"
            || prev.text == "]";
        if !value_ctx {
            continue;
        }
        let Some(close) = matching_bracket(&flat, k) else {
            continue;
        };
        let computed = flat[k + 1..close].iter().any(|(_, it)| {
            it.kind == TokKind::Ident && !is_type_keyword(&it.text) && !is_const_ident(&it.text)
        });
        if computed && !indexing_waiver && !waived(li) {
            out.push(Finding::new(
                NAME,
                cx,
                li,
                t.col,
                "computed indexing can panic on a hot path; document the file's bounds \
                 discipline with an // INVARIANT(indexing): comment (or restructure to \
                 iterators/get)"
                    .to_string(),
            ));
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (e.g. `return [..]`, `in [..]`, `mut [..]` patterns).
fn is_keywordish(s: &str) -> bool {
    matches!(
        s,
        "return" | "in" | "mut" | "ref" | "box" | "move" | "else" | "match" | "if" | "impl" | "dyn"
    )
}

/// SCREAMING_CASE identifiers are compile-time constants, not runtime
/// indices.
fn is_const_ident(s: &str) -> bool {
    s.len() > 1
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Given `flat[open]` == `[`, returns the index of the matching `]`.
fn matching_bracket(flat: &[(usize, Tok)], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, (_, t)) in flat.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
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
