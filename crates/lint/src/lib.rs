//! `rm-lint` — a workspace-aware determinism & invariant analyzer.
//!
//! The revmax reproduction sells hard guarantees: bit-identical winners at
//! any thread count, golden artifact snapshots, `≥ (1−1/e−ε)·OPT`
//! statistical suites. Those rest on mechanical invariants — RNG streams
//! derived only by chained mixing, no hash-order iteration in
//! result-affecting code, panic-free hot paths, no wall-clock influence on
//! artifacts, scheduler-independent float reductions, zero `unsafe`, one
//! fan-out primitive — and on a small codebase: no `pub` item that nothing
//! reaches. This crate enforces them with a self-contained line scanner
//! (hand-rolled lexer, no registry deps) suitable for CI. Seven lints judge
//! one file at a time; `unreached-pub` indexes the identifiers of the whole
//! workspace, test code included, and judges every `pub` item against it:
//!
//! ```text
//! cargo run -p rm-lint            # human output, exit 1 on findings
//! cargo run -p rm-lint -- --json  # machine-readable report
//! ```
//!
//! Waivers are per-line `// rm-lint: allow(<lint>)` pragmas (same line or
//! the line above); `panic-path` additionally honors `// INVARIANT:` /
//! `// INVARIANT(indexing):` comments and `float-reduce` honors
//! `// MERGE ORDER:`. See DESIGN.md → "Determinism invariants and
//! rm-lint".
#![forbid(unsafe_code)]

pub mod context;
pub mod lexer;
pub mod lints;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use context::FileContext;
pub use lints::{Check, LintDef, REGISTRY};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (kebab-case, as in the registry).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human explanation with the suggested fix.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    /// Builds a finding for 0-based line index `li` of `cx`.
    pub fn new(
        lint: &'static str,
        cx: &FileContext,
        li: usize,
        col: usize,
        message: String,
    ) -> Self {
        Finding {
            lint,
            path: cx.path.clone(),
            line: li + 1,
            column: col,
            message,
            snippet: cx.lines[li].raw.trim().to_string(),
        }
    }
}

/// A full analysis report.
#[derive(Debug)]
pub struct Report {
    /// Analyzer root (workspace directory).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (path, line, column, lint).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings per lint, in registry order (zero-count lints included, so
    /// the JSON schema is stable).
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        REGISTRY
            .iter()
            .map(|def| {
                (
                    def.name,
                    self.findings.iter().filter(|f| f.lint == def.name).count(),
                )
            })
            .collect()
    }
}

/// Runs every per-file lint over one in-memory file. `path` is the
/// workspace-relative path the content should be judged *as* (the lints are
/// path-sensitive), which is how the fixture corpus exercises hot-path and
/// crate-scoped rules.
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    let cx = FileContext::new(path, source);
    let mut out = Vec::new();
    run_file_lints(&cx, &mut out);
    sort_findings(&mut out);
    out
}

/// Directories never scanned (test/bench/example code is not
/// result-affecting; `vendor/` is out of scope per the vendored-shims
/// constraint; `crates/lint` hosts the fixture corpus of deliberately bad
/// code).
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "target" | "vendor" | ".git" | "tests" | "benches" | "examples" | "fixtures"
    )
}

/// Walks the workspace and runs every per-file lint, every workspace lint
/// (which walk the tree themselves), plus the crate-root
/// `#![forbid(unsafe_code)]` audit.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        run_file_lints(&FileContext::new(&rel_str, &source), &mut findings);
        scanned += 1;
    }
    crate_root_forbids_unsafe(root, &mut findings)?;
    for def in REGISTRY {
        if let Check::Workspace(check) = def.check {
            check(root, &mut findings)?;
        }
    }
    sort_findings(&mut findings);
    Ok(Report {
        root: root.to_string_lossy().into_owned(),
        files_scanned: scanned,
        findings,
    })
}

fn run_file_lints(cx: &FileContext, out: &mut Vec<Finding>) {
    for def in REGISTRY {
        if let Check::File(check) = def.check {
            check(cx, out);
        }
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if path.is_dir() {
            if skip_dir(&name) || rel.starts_with("crates/lint") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") && name != "tests.rs" && !rel.starts_with("crates/lint") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Part of `unsafe-audit`: every crate root (the façade's `src/lib.rs` and
/// each `crates/*/src/lib.rs`) must carry `#![forbid(unsafe_code)]`.
fn crate_root_forbids_unsafe(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut roots = vec![PathBuf::from("src/lib.rs")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for n in names {
            roots.push(PathBuf::from(format!("crates/{n}/src/lib.rs")));
        }
    }
    for rel in roots {
        let abs = root.join(&rel);
        if !abs.is_file() {
            continue;
        }
        let source = std::fs::read_to_string(&abs)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let cx = FileContext::new(&rel_str, &source);
        let normalized: String = cx
            .lines
            .iter()
            .flat_map(|l| l.code.chars())
            .filter(|c| !c.is_whitespace())
            .collect();
        if !normalized.contains("#![forbid(unsafe_code)]") {
            out.push(Finding {
                lint: "unsafe-audit",
                path: rel_str,
                line: 1,
                column: 1,
                message: "crate root is missing #![forbid(unsafe_code)]; the zero-unsafe \
                          invariant must be structural"
                    .to_string(),
                snippet: String::new(),
            });
        }
    }
    Ok(())
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.column, a.lint).cmp(&(
            b.path.as_str(),
            b.line,
            b.column,
            b.lint,
        ))
    });
}

/// Renders the report for humans.
pub fn render_human(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        let _ = writeln!(
            s,
            "{}:{}:{}: [{}] {}\n    {}",
            f.path, f.line, f.column, f.lint, f.message, f.snippet
        );
    }
    let _ = writeln!(
        s,
        "rm-lint: {} finding(s) in {} file(s) scanned",
        report.findings.len(),
        report.files_scanned
    );
    for (name, count) in report.counts() {
        if count > 0 {
            let _ = writeln!(s, "  {name}: {count}");
        }
    }
    s
}

/// Renders the report as JSON (schema version 1):
///
/// ```json
/// {"version":1,"root":"…","files_scanned":N,
///  "findings":[{"lint":"…","path":"…","line":1,"column":1,
///               "message":"…","snippet":"…"}, …],
///  "counts":{"nondet-iter":0, …}}
/// ```
pub fn render_json(report: &Report) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"version\":1,\"root\":{},\"files_scanned\":{},\"findings\":[",
        json_str(&report.root),
        report.files_scanned
    );
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"lint\":{},\"path\":{},\"line\":{},\"column\":{},\"message\":{},\"snippet\":{}}}",
            json_str(f.lint),
            json_str(&f.path),
            f.line,
            f.column,
            json_str(&f.message),
            json_str(&f.snippet)
        );
    }
    s.push_str("],\"counts\":{");
    for (i, (name, count)) in report.counts().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", json_str(name), count);
    }
    s.push_str("}}");
    s
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn registry_names_are_stable() {
        let names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "nondet-iter",
                "rng-discipline",
                "panic-path",
                "wallclock-in-results",
                "float-reduce",
                "unsafe-audit",
                "scoped-threads",
                "unreached-pub"
            ]
        );
    }
}
