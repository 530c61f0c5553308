//! The analyzer's own acceptance gate: the live workspace is clean, and
//! reintroducing a historical bug class — hash-order iteration,
//! raw-arithmetic seed derivation, a crate root without
//! `forbid(unsafe_code)`, a public item nothing calls — fires immediately.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint lives two levels below the workspace root")
}

#[test]
fn live_workspace_is_clean() {
    let report = rm_lint::analyze_workspace(workspace_root()).expect("workspace scan");
    assert!(
        report.files_scanned > 40,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    let rendered = rm_lint::render_human(&report);
    assert!(
        report.findings.is_empty(),
        "rm-lint must be clean on the live workspace:\n{rendered}"
    );
}

#[test]
fn reintroduced_hash_iteration_fires() {
    let findings = rm_lint::analyze_source(
        "crates/core/src/allocation.rs",
        "pub fn is_disjoint(seeds: &[Vec<u32>]) -> bool {\n\
         \x20   let mut seen = std::collections::HashSet::new();\n\
         \x20   seeds.iter().flatten().all(|&u| seen.insert(u))\n\
         }\n",
    );
    assert!(
        findings.iter().any(|f| f.lint == "nondet-iter"),
        "the pre-PR HashSet-based is_disjoint must be flagged"
    );
}

#[test]
fn reintroduced_raw_seed_arithmetic_fires() {
    let findings = rm_lint::analyze_source(
        "crates/core/src/instance.rs",
        "pub fn per_ad_seed(seed: u64, i: u64) -> u64 {\n\
         \x20   seed ^ (i << 40)\n\
         }\n",
    );
    assert!(
        findings.iter().any(|f| f.lint == "rng-discipline"),
        "raw per-ad seed derivation must be flagged"
    );
}

#[test]
fn stripping_a_forbid_attr_fires() {
    // Simulate a crate root losing #![forbid(unsafe_code)] by scanning a
    // temp workspace with one bare crate.
    let dir = std::env::temp_dir().join(format!("rm-lint-selfcheck-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").expect("write");
    let report = rm_lint::analyze_workspace(&dir).expect("scan");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.lint == "unsafe-audit" && f.path == "crates/demo/src/lib.rs"),
        "missing forbid(unsafe_code) must be flagged"
    );
}

#[test]
fn reintroduced_unreached_generator_fires() {
    // The deleted Watts–Strogatz generator came back with only its own unit
    // test as a caller; a call from an integration test reaches it again.
    let dir = std::env::temp_dir().join(format!("rm-lint-unreached-{}", std::process::id()));
    let src = dir.join("crates/graph/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub mod ws;\npub use ws::watts_strogatz;\n",
    )
    .expect("write");
    std::fs::write(
        src.join("ws.rs"),
        "pub fn watts_strogatz(n: usize) -> usize {\n\
         \x20   n\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn ring() {\n\
         \x20       assert_eq!(super::watts_strogatz(4), 4);\n\
         \x20   }\n\
         }\n",
    )
    .expect("write");
    let unreached = |dir: &Path| {
        rm_lint::analyze_workspace(dir)
            .expect("scan")
            .findings
            .into_iter()
            .filter(|f| f.lint == "unreached-pub")
            .map(|f| (f.path, f.line))
            .collect::<Vec<_>>()
    };
    let before = unreached(&dir);
    let tests = dir.join("crates/graph/tests");
    std::fs::create_dir_all(&tests).expect("mkdir");
    std::fs::write(
        tests.join("generators.rs"),
        "#[test]\nfn ws() {\n    rm_graph::watts_strogatz(8);\n}\n",
    )
    .expect("write");
    let after = unreached(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        before,
        vec![("crates/graph/src/ws.rs".to_string(), 1)],
        "a pub fn only its own tests call must be flagged"
    );
    assert!(
        after.is_empty(),
        "a caller in tests/ must reach it: {after:?}"
    );
}
