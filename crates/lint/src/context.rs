//! Per-file analysis context: lexed lines, token streams, `#[cfg(test)]`
//! region tracking, pragma waivers, and workspace-path classification.

use crate::lexer::{split_lines, tokenize, Line, Tok, TokKind};

/// Files whose hot paths must stay panic-free (the `panic-path` allowlist).
/// Prefix entries (trailing `/`) cover whole modules.
pub const HOT_PATHS: &[&str] = &[
    "crates/rrsets/src/sampler.rs",
    "crates/rrsets/src/index.rs",
    "crates/rrsets/src/arena.rs",
    "crates/rrsets/src/opim.rs",
    "crates/diffusion/src/cascade.rs",
    "crates/diffusion/src/tic.rs",
    "crates/graph/src/par.rs",
    "crates/core/src/scalable/",
];

/// The sanctioned seed-derivation module: the one place allowed to perform
/// raw seed arithmetic (it *is* the mixer).
pub const SEED_HELPER_PATHS: &[&str] = &["crates/graph/src/seed.rs", "vendor/rand/src/lib.rs"];

/// The sanctioned fan-out module: the one place allowed to start threads
/// (it *is* the scheduler).
pub const FAN_OUT_PATHS: &[&str] = &["crates/graph/src/par.rs"];

/// A lexed, classified source file ready for linting.
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Lexed lines.
    pub lines: Vec<Line>,
    /// Per-line token streams (code part only).
    pub tokens: Vec<Vec<Tok>>,
    /// `in_test[i]` — line `i` lies inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl FileContext {
    /// Lexes `source` under the given workspace-relative `path`.
    pub fn new(path: &str, source: &str) -> Self {
        let lines = split_lines(source);
        let tokens: Vec<Vec<Tok>> = lines.iter().map(|l| tokenize(&l.code)).collect();
        let in_test = mark_test_regions(&tokens);
        FileContext {
            path: path.replace('\\', "/"),
            lines,
            tokens,
            in_test,
        }
    }

    /// Crate name owning this file (`crates/<name>/…` → `<name>`, the root
    /// façade → `revmax`).
    pub fn crate_name(&self) -> &str {
        if let Some(rest) = self.path.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else {
            "revmax"
        }
    }

    /// True if the file is on the panic-free hot-path allowlist.
    pub fn is_hot_path(&self) -> bool {
        HOT_PATHS.iter().any(|h| {
            if let Some(prefix) = h.strip_suffix('/') {
                self.path.starts_with(prefix) && self.path.ends_with(".rs")
            } else {
                self.path == *h
            }
        }) && !self.path.ends_with("/tests.rs")
    }

    /// True if the file is a sanctioned seed-derivation helper module.
    pub fn is_seed_helper(&self) -> bool {
        SEED_HELPER_PATHS.contains(&self.path.as_str())
    }

    /// True if the file is the sanctioned fan-out module.
    pub fn is_fan_out_module(&self) -> bool {
        FAN_OUT_PATHS.contains(&self.path.as_str())
    }

    /// True if line `i` (0-based) is waived for `lint` by an
    /// `// rm-lint: allow(<lint>)` pragma on the same or the previous line.
    pub fn allowed(&self, i: usize, lint: &str) -> bool {
        let hit = |k: usize| pragma_allows(&self.lines[k].comment, lint);
        hit(i) || (i > 0 && hit(i - 1))
    }

    /// True if any of lines `i-back..=i` carries a comment containing
    /// `needle` (used for `// INVARIANT:` and `// MERGE ORDER:` waivers).
    pub fn comment_near(&self, i: usize, back: usize, needle: &str) -> bool {
        (i.saturating_sub(back)..=i).any(|k| self.lines[k].comment.contains(needle))
    }

    /// True if any comment in the file contains `needle` (file-scope
    /// waivers such as `INVARIANT(indexing):`).
    pub fn comment_anywhere(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.comment.contains(needle))
    }
}

/// Parses `rm-lint: allow(a, b-c)` out of a comment string.
fn pragma_allows(comment: &str, lint: &str) -> bool {
    let mut rest = comment;
    while let Some(pos) = rest.find("rm-lint:") {
        rest = &rest[pos + "rm-lint:".len()..];
        let trimmed = rest.trim_start();
        if let Some(args) = trimmed.strip_prefix("allow(") {
            if let Some(end) = args.find(')') {
                if args[..end].split(',').any(|name| name.trim() == lint) {
                    return true;
                }
            }
        }
    }
    false
}

/// Marks lines belonging to `#[cfg(test)]` items. After the attribute, the
/// next item extends to the first top-level `;` or to the brace block that
/// begins at the first `{` — this covers `mod tests { … }`, test-only `fn`s
/// and `impl`s, and `#[cfg(test)] use`/`mod x;` declarations alike.
fn mark_test_regions(tokens: &[Vec<Tok>]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    // Flatten to (line, token) pairs.
    let flat: Vec<(usize, &Tok)> = tokens
        .iter()
        .enumerate()
        .flat_map(|(li, ts)| ts.iter().map(move |t| (li, t)))
        .collect();
    let is = |t: &Tok, s: &str| t.text == s;
    let mut k = 0usize;
    while k < flat.len() {
        // Match `# [ cfg ( test` with optional leading `all(`/`any(` noise.
        let m = k + 4 < flat.len()
            && is(flat[k].1, "#")
            && is(flat[k + 1].1, "[")
            && is(flat[k + 2].1, "cfg")
            && is(flat[k + 3].1, "(")
            && flat[k + 4..]
                .iter()
                .take(6)
                .any(|(_, t)| t.kind == TokKind::Ident && t.text == "test");
        if !m {
            k += 1;
            continue;
        }
        // Skip past the attribute's closing `]`.
        let mut depth = 0i32;
        let mut j = k + 1;
        while j < flat.len() {
            match flat[j].1.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth <= 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
        // Extend over the following item: to the matching `}` of the first
        // top-level `{`, or to the first `;` if it comes sooner.
        let item_start_line = flat.get(k).map_or(0, |(li, _)| *li);
        let mut brace = 0i32;
        let mut end_line = item_start_line;
        while j < flat.len() {
            let (li, t) = flat[j];
            end_line = li;
            match t.text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace <= 0 {
                        break;
                    }
                }
                ";" if brace == 0 => break,
                _ => {}
            }
            j += 1;
        }
        for slot in in_test.iter_mut().take(end_line + 1).skip(item_start_line) {
            *slot = true;
        }
        k = j + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert_eq!(
            cx.in_test,
            vec![false, true, true, true, true, false, false]
        );
    }

    #[test]
    fn cfg_test_use_line_only() {
        let src = "#[cfg(test)]\nuse foo::Bar;\nfn live() {}\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert_eq!(cx.in_test, vec![true, true, false, false]);
    }

    #[test]
    fn pragma_parsing() {
        let src = "let a = 1; // rm-lint: allow(nondet-iter, rng-discipline)\nlet b = 2;\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert!(cx.allowed(0, "nondet-iter"));
        assert!(cx.allowed(0, "rng-discipline"));
        assert!(!cx.allowed(0, "panic-path"));
        // Previous-line pragmas cover the next line.
        assert!(cx.allowed(1, "nondet-iter"));
    }

    #[test]
    fn hot_path_classification() {
        let hot = FileContext::new("crates/rrsets/src/sampler.rs", "");
        assert!(hot.is_hot_path());
        let scal = FileContext::new("crates/core/src/scalable/engine.rs", "");
        assert!(scal.is_hot_path());
        let scal_tests = FileContext::new("crates/core/src/scalable/tests.rs", "");
        assert!(!scal_tests.is_hot_path());
        let cold = FileContext::new("crates/core/src/metrics.rs", "");
        assert!(!cold.is_hot_path());
    }
}
