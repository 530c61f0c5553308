//! Fixture corpus: every lint has a known-bad file proving it fires (with
//! exact counts and spans) and a known-good file proving its sanctioned
//! alternatives and waivers stay silent.

use rm_lint::analyze_source;

/// Virtual workspace paths the fixture content is judged *as* — the lints
/// are path-sensitive (hot-path allowlist, bench-crate exemption, seed
/// helper module).
const LIVE: &str = "crates/core/src/fixture.rs";
const HOT: &str = "crates/rrsets/src/sampler.rs";

fn lines_of(lint: &str, path: &str, source: &str) -> Vec<usize> {
    analyze_source(path, source)
        .into_iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

fn assert_clean(lint: &str, path: &str, source: &str) {
    let hits = lines_of(lint, path, source);
    assert!(
        hits.is_empty(),
        "{lint} good fixture fired at lines {hits:?}"
    );
}

#[test]
fn nondet_iter_fixtures() {
    let bad = include_str!("fixtures/nondet-iter/bad.rs");
    assert_eq!(lines_of("nondet-iter", LIVE, bad), vec![4, 8]);
    assert_clean(
        "nondet-iter",
        LIVE,
        include_str!("fixtures/nondet-iter/good.rs"),
    );
}

#[test]
fn rng_discipline_fixtures() {
    let bad = include_str!("fixtures/rng-discipline/bad.rs");
    assert_eq!(lines_of("rng-discipline", LIVE, bad), vec![5, 11, 15]);
    assert_clean(
        "rng-discipline",
        LIVE,
        include_str!("fixtures/rng-discipline/good.rs"),
    );
    // The seed helper module itself is exempt: it is the mixer.
    assert_clean("rng-discipline", "crates/graph/src/seed.rs", bad);
}

#[test]
fn panic_path_fixtures() {
    let bad = include_str!("fixtures/panic-path/bad.rs");
    assert_eq!(lines_of("panic-path", HOT, bad), vec![4, 9, 11, 15]);
    assert_clean(
        "panic-path",
        HOT,
        include_str!("fixtures/panic-path/good.rs"),
    );
    // Off the hot-path allowlist the same code is not panic-path's business.
    assert_clean("panic-path", LIVE, bad);
}

#[test]
fn wallclock_fixtures() {
    let bad = include_str!("fixtures/wallclock-in-results/bad.rs");
    assert_eq!(lines_of("wallclock-in-results", LIVE, bad), vec![4, 9]);
    assert_clean(
        "wallclock-in-results",
        LIVE,
        include_str!("fixtures/wallclock-in-results/good.rs"),
    );
    // rm-bench owns timing; the same content is sanctioned there.
    assert_clean("wallclock-in-results", "crates/bench/src/fixture.rs", bad);
}

#[test]
fn float_reduce_fixtures() {
    let bad = include_str!("fixtures/float-reduce/bad.rs");
    assert_eq!(lines_of("float-reduce", LIVE, bad), vec![11, 21]);
    assert_clean(
        "float-reduce",
        LIVE,
        include_str!("fixtures/float-reduce/good.rs"),
    );
}

#[test]
fn scoped_threads_fixtures() {
    let bad = include_str!("fixtures/scoped-threads/bad.rs");
    assert_eq!(lines_of("scoped-threads", LIVE, bad), vec![5, 15, 20]);
    assert_clean(
        "scoped-threads",
        LIVE,
        include_str!("fixtures/scoped-threads/good.rs"),
    );
    // The fan-out module itself is exempt: it is the scheduler.
    assert_clean("scoped-threads", "crates/graph/src/par.rs", bad);
}

#[test]
fn unsafe_audit_fixtures() {
    let bad = include_str!("fixtures/unsafe-audit/bad.rs");
    assert_eq!(lines_of("unsafe-audit", LIVE, bad), vec![4, 12]);
    assert_clean(
        "unsafe-audit",
        LIVE,
        include_str!("fixtures/unsafe-audit/good.rs"),
    );
}

#[test]
fn findings_carry_spans_and_snippets() {
    let bad = include_str!("fixtures/nondet-iter/bad.rs");
    let f = &analyze_source(LIVE, bad)[0];
    assert_eq!(f.lint, "nondet-iter");
    assert_eq!(f.path, LIVE);
    assert_eq!(f.line, 4);
    assert!(f.column > 1, "column should point at the offending token");
    assert!(f.snippet.contains("HashMap"));
    assert!(!f.message.is_empty());
}

#[test]
fn json_schema_is_stable() {
    // Render a report over one bad fixture and check the machine contract:
    // version, counts for *every* registered lint, and finding fields.
    let findings = analyze_source(LIVE, include_str!("fixtures/nondet-iter/bad.rs"));
    let report = rm_lint::Report {
        root: "fixture".to_string(),
        files_scanned: 1,
        findings,
    };
    let json = rm_lint::render_json(&report);
    assert!(json.starts_with("{\"version\":1,"));
    for def in rm_lint::REGISTRY {
        assert!(
            json.contains(&format!("\"{}\":", def.name)),
            "counts must include {}",
            def.name
        );
    }
    for field in [
        "\"lint\":",
        "\"path\":",
        "\"line\":",
        "\"column\":",
        "\"message\":",
        "\"snippet\":",
    ] {
        assert!(json.contains(field), "finding field {field} missing");
    }
}

#[test]
fn unreached_pub_fixture_tree() {
    // A small workspace, read whole: the rule indexes every file at once.
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreached-pub");
    let report = rm_lint::analyze_workspace(&root).expect("fixture scan");
    let hits: Vec<(String, usize)> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unreached-pub")
        .map(|f| (f.path.clone(), f.line))
        .collect();
    // Flagged: `only_own_tests` (line 2) and `OnlyImpl` (line 7). Not
    // flagged: the uses from `tests/`, from `other.rs`'s unit tests, from a
    // DESIGN.md code span and as a return type; the `collide` namesake; the
    // `pub(crate)` fn.
    let items = "crates/demo/src/items.rs".to_string();
    assert_eq!(hits, vec![(items.clone(), 2), (items, 7)]);
}
