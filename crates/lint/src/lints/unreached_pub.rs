//! `unreached-pub` — public items nothing reaches.
//!
//! Code that no experiment, example, CLI id or DESIGN section reaches gets
//! deleted, not maintained. This is the one workspace-level lint: it builds
//! an identifier index over every file that can call library code —
//! `crates/*/{src,tests,benches,examples}`, the façade's `src/`, the root
//! `tests/`, `benches/` and `examples/`, `perfbench/src`, and the code
//! spans of `DESIGN.md` — and flags a bare `pub` fn, struct, enum, trait,
//! type, const or static declared in non-test library code (`crates/*/src`
//! or `src/`) whose name occurs nowhere else.
//!
//! An occurrence does not count as a use when it is
//! - the name of a declaration (the item's own or a namesake's),
//! - inside an `impl` block whose self-type is the item (only when exactly
//!   one type of that name is declared, so a namesake's impl cannot hide a
//!   real use),
//! - inside a `pub use` or `mod` statement, or in a comment, or
//! - in the defining file's `#[cfg(test)]` code.
//!
//! A use from another file counts, that file's unit tests included: test
//! code is read as a caller. The rule matches names, not paths, so a
//! collision can hide a dead item but never flags a live one. `pub(crate)`
//! and narrower items are left to rustc's `dead_code` lint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::lints::flatten;
use crate::Finding;

const NAME: &str = "unreached-pub";

/// Keywords that introduce a named item; the identifier after one is a
/// declaration, never a use.
const DECL_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// Item kinds the rule judges.
const JUDGED: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Directories (relative to the root and to each `crates/<name>/`) whose
/// files join the identifier index.
const CODE_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// One non-declaration identifier occurrence.
struct UseSite {
    file: usize,
    in_test: bool,
    /// The occurrence lies in an `impl` block whose self-type has this
    /// same name.
    in_own_impl: bool,
}

/// A judged `pub` declaration.
struct Decl {
    file: usize,
    line: usize,
    col: usize,
    kind: &'static str,
    name: String,
}

/// Scans the workspace at `root` and reports every unreached `pub` item.
pub fn check_workspace(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut paths = Vec::new();
    collect(root, &root.join("perfbench/src"), &mut paths)?;
    for dir in CODE_DIRS {
        collect(root, &root.join(dir), &mut paths)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path();
            for sub in CODE_DIRS {
                collect(root, &dir.join(sub), &mut paths)?;
            }
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let source = std::fs::read_to_string(root.join(rel))?;
        files.push(FileContext::new(&rel.to_string_lossy(), &source));
    }

    let mut uses: BTreeMap<String, Vec<UseSite>> = BTreeMap::new();
    let mut decls = Vec::new();
    let mut type_decls: BTreeMap<String, usize> = BTreeMap::new();
    for (fi, cx) in files.iter().enumerate() {
        index_file(fi, cx, &mut uses, &mut decls, &mut type_decls);
    }
    if let Ok(design) = std::fs::read_to_string(root.join("DESIGN.md")) {
        for name in code_span_idents(&design) {
            uses.entry(name).or_default().push(UseSite {
                file: usize::MAX,
                in_test: false,
                in_own_impl: false,
            });
        }
    }

    for d in decls {
        let cx = &files[d.file];
        let unique_type = type_decls.get(&d.name) == Some(&1);
        let reached = uses.get(&d.name).is_some_and(|sites| {
            sites
                .iter()
                .any(|u| !((u.file == d.file && u.in_test) || (u.in_own_impl && unique_type)))
        });
        if reached || cx.allowed(d.line, NAME) {
            continue;
        }
        out.push(Finding::new(
            NAME,
            cx,
            d.line,
            d.col,
            format!(
                "`pub {} {}` is named nowhere outside its declaration, its own impl blocks, \
                 re-exports and this file's tests; delete it (move test-only helpers into \
                 the test module)",
                d.kind, d.name
            ),
        ));
    }
    Ok(())
}

/// Recursively lists `.rs` files under `dir` (if it exists), skipping
/// build output and the lint fixture corpus.
fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if path.is_dir() {
            if !matches!(name.as_deref(), Some("target" | "fixtures")) {
                collect(root, &path, out)?;
            }
        } else if name.is_some_and(|n| n.ends_with(".rs")) {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Adds one file's identifier occurrences to `uses`, its judged `pub`
/// declarations to `decls`, and its type declarations to `type_decls`.
fn index_file(
    fi: usize,
    cx: &FileContext,
    uses: &mut BTreeMap<String, Vec<UseSite>>,
    decls: &mut Vec<Decl>,
    type_decls: &mut BTreeMap<String, usize>,
) {
    let flat = flatten(cx);
    let text = |j: usize| flat.get(j).map_or("", |(_, t)| t.text.as_str());
    let own_impl = impl_self_types(&flat);
    let library = (cx.path.starts_with("src/")
        || (cx.path.starts_with("crates/") && cx.path.split('/').nth(2) == Some("src")))
        && !cx.path.ends_with("/tests.rs");
    // Index of each declaration's name token -> its keyword.
    let mut decl_names = BTreeMap::new();
    for (k, (_, t)) in flat.iter().enumerate() {
        let Some(&kw) = DECL_KEYWORDS.iter().find(|&&kw| kw == t.text) else {
            continue;
        };
        if matches!(text(k.wrapping_sub(1)), "'" | "*") {
            continue;
        }
        let n = if text(k + 1) == "mut" { k + 2 } else { k + 1 };
        if flat.get(n).is_some_and(|(_, t)| t.kind == TokKind::Ident)
            && !matches!(text(n), "fn" | "_")
        {
            decl_names.insert(n, kw);
        }
    }
    let mut in_reexport = false;
    for (k, (li, t)) in flat.iter().enumerate() {
        if in_reexport {
            in_reexport = t.text != ";";
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        // `pub use …;` (or `pub(…) use …;`) re-exports without using.
        if t.text == "use" && matches!(text(k.wrapping_sub(1)), "pub" | ")") {
            in_reexport = true;
            continue;
        }
        let Some(&kw) = decl_names.get(&k) else {
            uses.entry(t.text.clone()).or_default().push(UseSite {
                file: fi,
                in_test: cx.in_test[*li],
                in_own_impl: own_impl[k].as_deref() == Some(t.text.as_str()),
            });
            continue;
        };
        if matches!(kw, "struct" | "enum" | "union" | "trait" | "type") {
            *type_decls.entry(t.text.clone()).or_default() += 1;
        }
        let kw_at = if text(k - 1) == "mut" { k - 2 } else { k - 1 };
        if library && JUDGED.contains(&kw) && !cx.in_test[*li] && is_bare_pub(&flat, kw_at) {
            decls.push(Decl {
                file: fi,
                line: *li,
                col: t.col,
                kind: kw,
                name: t.text.clone(),
            });
        }
    }
}

/// True if the declaration whose keyword is `flat[kw]` is bare `pub` (not
/// `pub(…)`, not private). `const`, `async` and `extern "…"` between `pub`
/// and `fn` are skipped.
fn is_bare_pub(flat: &[(usize, Tok)], kw: usize) -> bool {
    let mut j = kw;
    while j > 0
        && matches!(
            flat[j - 1].1.text.as_str(),
            "const" | "async" | "extern" | "\""
        )
    {
        j -= 1;
    }
    j > 0 && flat[j - 1].1.text == "pub"
}

/// For every token, the self-type name of the innermost `impl` block (or
/// header) enclosing it.
fn impl_self_types(flat: &[(usize, Tok)]) -> Vec<Option<String>> {
    let mut out = vec![None; flat.len()];
    for k in 0..flat.len() {
        let at_item = k == 0 || matches!(flat[k - 1].1.text.as_str(), "}" | ";" | "{" | "]");
        if flat[k].1.text != "impl" || !at_item {
            continue;
        }
        let Some(open) = (k..flat.len()).find(|&j| flat[j].1.text == "{") else {
            continue;
        };
        let Some(close) = matching_brace(flat, open) else {
            continue;
        };
        let self_type = self_type_name(&flat[k + 1..open]);
        for slot in &mut out[k..=close] {
            slot.clone_from(&self_type);
        }
    }
    out
}

/// The last path segment of an impl header's self-type: `Foo` for
/// `impl<T> a::Foo<T>` and for `impl Trait for &'a Foo where …`; `None`
/// for a tuple, slice or array.
fn self_type_name(header: &[(usize, Tok)]) -> Option<String> {
    let mut depth = 0i32;
    let mut start = 0;
    let mut end = header.len();
    for (j, (_, t)) in header.iter().enumerate() {
        let arrow = j > 0 && header[j - 1].1.text == "-";
        match t.text.as_str() {
            "<" => depth += 1,
            ">" if !arrow => depth -= 1,
            "for" if depth == 0 => start = j + 1,
            "where" if depth == 0 => {
                end = j;
                break;
            }
            _ => {}
        }
    }
    // Tuples, slices and arrays (`(A, B)`, `[T]`) name no single type.
    let mut depth = 0i32;
    let mut name = None;
    for (_, t) in &header[start..end] {
        match t.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            _ if depth == 0
                && t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "mut" | "dyn") =>
            {
                name = Some(t.text.clone());
            }
            _ => {}
        }
    }
    name
}

fn matching_brace(flat: &[(usize, Tok)], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, (_, t)) in flat.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
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

/// Identifiers inside the Markdown code spans (inline `` `…` `` and
/// fenced blocks) of `doc`.
fn code_span_idents(doc: &str) -> Vec<String> {
    let mut spans = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            spans.push_str(line);
            spans.push('\n');
        } else {
            for (i, part) in line.split('`').enumerate() {
                if i % 2 == 1 {
                    spans.push_str(part);
                    spans.push('\n');
                }
            }
        }
    }
    crate::lexer::tokenize(&spans)
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(src: &str) -> Option<String> {
        let cx = FileContext::new("crates/core/src/x.rs", src);
        self_type_name(&flatten(&cx))
    }

    #[test]
    fn impl_headers_name_their_self_type() {
        assert_eq!(header("<T> a::Foo<T>").as_deref(), Some("Foo"));
        assert_eq!(
            header("<'a, F: Fn() -> u32> Trait<F> for &'a Foo where F: Copy").as_deref(),
            Some("Foo")
        );
        assert_eq!(header("Trait for Box<dyn Bar>").as_deref(), Some("Box"));
        assert_eq!(header("Trait for (A, B)"), None);
        assert_eq!(header("<T> Trait for [T]"), None);
    }
}
