//! Golden determinism snapshots: `experiments fig1 table2 --quick` at the
//! default seed must produce **byte-identical** CSV output across runs (and
//! across thread counts — the harness threads never touch these artifacts'
//! arithmetic, and the sampler is thread-count-invariant by construction,
//! which `tests/cross_model_consistency.rs` verifies on real batches), and
//! the `fig5 table3 --quick` scalability sweep must match its pinned
//! goldens after the volatile columns (wall time, capacity-based memory)
//! are stripped — seeds, θ and revenue are deterministic engine outputs.
//! `pool-ablation --quick` pins the shared-pool path the same way.
//! The current output is pinned under `tests/golden/`; a diff here means a
//! determinism regression or an intentional artifact change that must
//! re-pin the goldens.

use rm_bench::experiments::{self, Opts};

/// Serializes the tests that write the shared `fig5`/`table3` artifact
/// files, so the parallel test runner cannot interleave their sweeps.
static FIG5_ARTIFACTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The harness's default invocation with `--quick`.
fn quick_opts() -> Opts {
    Opts {
        quick: true,
        ..Default::default()
    }
}

fn read_artifact(name: &str) -> String {
    let path = rm_bench::report::out_dir().join(format!("{name}.csv"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()))
}

#[test]
fn fig1_and_table2_quick_match_pinned_goldens_across_runs() {
    // First run.
    experiments::fig1(quick_opts());
    experiments::table2(quick_opts());
    let fig1_a = read_artifact("fig1_tightness");
    let table2_a = read_artifact("table2_terms");

    // Second run must be byte-identical (no hidden global state, time, or
    // scheduling dependence).
    experiments::fig1(quick_opts());
    experiments::table2(quick_opts());
    assert_eq!(
        fig1_a,
        read_artifact("fig1_tightness"),
        "fig1 CSV drifted between runs"
    );
    assert_eq!(
        table2_a,
        read_artifact("table2_terms"),
        "table2 CSV drifted between runs"
    );

    // And both must match the pinned goldens bit-for-bit.
    assert_eq!(
        fig1_a,
        include_str!("golden/fig1_tightness.csv"),
        "fig1 CSV deviates from the pinned golden — re-pin only for an intentional artifact change"
    );
    assert_eq!(
        table2_a,
        include_str!("golden/table2_terms.csv"),
        "table2 CSV deviates from the pinned golden — re-pin only for an intentional artifact change"
    );
}

/// Drops the named columns from a CSV (header-addressed), keeping the rest
/// byte-exact — how the fig5/table3 snapshots exclude wall-clock and
/// allocator-capacity columns while pinning every deterministic one.
fn strip_columns(csv: &str, drop: &[&str]) -> String {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("empty CSV").split(',').collect();
    let keep: Vec<usize> = header
        .iter()
        .enumerate()
        .filter(|(_, h)| !drop.contains(h))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        header.len() - keep.len(),
        drop.len(),
        "a column to strip is missing from {header:?}"
    );
    let mut out = String::new();
    for line in std::iter::once(header.join(",")).chain(lines.map(str::to_string)) {
        let cells: Vec<&str> = line.split(',').collect();
        let kept: Vec<&str> = keep.iter().map(|&i| cells[i]).collect();
        out.push_str(&kept.join(","));
        out.push('\n');
    }
    out
}

#[test]
fn fig5_table3_quick_match_pinned_goldens_modulo_volatile_columns() {
    let _artifacts = FIG5_ARTIFACTS.lock().unwrap_or_else(|e| e.into_inner());
    // A tiny but engine-exercising scale: 8 TiEngine runs across two
    // datasets, two algorithms, h and budget grids.
    let opts = Opts {
        quick: true,
        scale: 0.004,
        ..Default::default()
    };
    experiments::fig5_table3(opts);
    let time_h = strip_columns(&read_artifact("fig5_runtime_vs_h"), &["time_s"]);
    let time_b = strip_columns(&read_artifact("fig5_runtime_vs_budget"), &["time_s"]);
    let mem = strip_columns(&read_artifact("table3_memory_vs_h"), &["memory_gib"]);

    // Determinism across runs first: a second sweep must reproduce the
    // stripped CSVs byte-for-byte.
    experiments::fig5_table3(opts);
    assert_eq!(
        time_h,
        strip_columns(&read_artifact("fig5_runtime_vs_h"), &["time_s"]),
        "fig5 runtime-vs-h CSV drifted between runs"
    );

    // Then the pinned goldens.
    assert_eq!(
        time_h,
        include_str!("golden/fig5_runtime_vs_h.stripped.csv"),
        "fig5 runtime-vs-h deviates from the pinned golden — re-pin only for an intentional change"
    );
    assert_eq!(
        time_b,
        include_str!("golden/fig5_runtime_vs_budget.stripped.csv"),
        "fig5 runtime-vs-budget deviates from the pinned golden — re-pin only for an intentional change"
    );
    assert_eq!(
        mem,
        include_str!("golden/table3_memory_vs_h.stripped.csv"),
        "table3 memory-vs-h deviates from the pinned golden — re-pin only for an intentional change"
    );
}

#[test]
fn tic_quality_quick_matches_pinned_goldens_modulo_volatile_columns() {
    // The lazy-mixing TIC artifact gate: `tic-quality --quick --scale
    // 0.005` must reproduce its pinned revenue/seeding-cost CSVs exactly
    // (modulo wall time) — KPT pilots, stopping rules, per-edge mixture
    // draws and evaluation all run through the TIC sampler, so a diff here
    // means the TIC pipeline's arithmetic moved.
    let opts = Opts {
        quick: true,
        scale: 0.005,
        ..Default::default()
    };
    experiments::tic_quality(opts);
    let rev = strip_columns(&read_artifact("ticq_revenue_vs_alpha"), &["time_s"]);
    let cost = strip_columns(&read_artifact("ticq_seeding_cost_vs_alpha"), &["time_s"]);

    // Determinism across runs first.
    experiments::tic_quality(opts);
    assert_eq!(
        rev,
        strip_columns(&read_artifact("ticq_revenue_vs_alpha"), &["time_s"]),
        "tic-quality revenue CSV drifted between runs"
    );

    assert_eq!(
        rev,
        include_str!("golden/ticq_revenue_vs_alpha.stripped.csv"),
        "tic-quality revenue deviates from the pinned golden — re-pin only for an intentional change"
    );
    assert_eq!(
        cost,
        include_str!("golden/ticq_seeding_cost_vs_alpha.stripped.csv"),
        "tic-quality seeding-cost deviates from the pinned golden — re-pin only for an intentional change"
    );
}

#[test]
fn fig5_table3_parallel_selection_matches_sequential_goldens() {
    let _artifacts = FIG5_ARTIFACTS.lock().unwrap_or_else(|e| e.into_inner());
    // The parallel-selection acceptance gate: `selection_threads > 1` (and
    // oversubscribed relative to this machine) must reproduce the pinned
    // sequential goldens bit-for-bit on the `fig5 table3 --quick` sweep —
    // the candidate fan-out and batched fixups may not move a single seed,
    // θ or revenue figure.
    for threads in [2, 8] {
        let opts = Opts {
            quick: true,
            scale: 0.004,
            selection_threads: threads,
            ..Default::default()
        };
        experiments::fig5_table3(opts);
        assert_eq!(
            strip_columns(&read_artifact("fig5_runtime_vs_h"), &["time_s"]),
            include_str!("golden/fig5_runtime_vs_h.stripped.csv"),
            "fig5 runtime-vs-h diverges from the sequential golden at selection_threads={threads}"
        );
        assert_eq!(
            strip_columns(&read_artifact("fig5_runtime_vs_budget"), &["time_s"]),
            include_str!("golden/fig5_runtime_vs_budget.stripped.csv"),
            "fig5 runtime-vs-budget diverges from the sequential golden at selection_threads={threads}"
        );
        assert_eq!(
            strip_columns(&read_artifact("table3_memory_vs_h"), &["memory_gib"]),
            include_str!("golden/table3_memory_vs_h.stripped.csv"),
            "table3 memory-vs-h diverges from the sequential golden at selection_threads={threads}"
        );
    }
}

#[test]
fn pool_ablation_quick_matches_pinned_golden_at_every_sampler_thread_count() {
    // The only golden that reaches `rr_sharing`: `pool-ablation --quick
    // --scale 0.005` runs the identical-tenant h-sweep and the reweighted
    // TIC arm (traced growth, importance weights, weighted coverage). Its
    // stripped CSV must match the pinned golden at the hardware default
    // and at one and two sampler threads; `mem_mib` reads the same at
    // every count, so only wall time is stripped.
    for threads in [usize::MAX, 1, 2] {
        let opts = Opts {
            quick: true,
            scale: 0.005,
            sampler_threads: threads,
            ..Default::default()
        };
        experiments::pool_ablation(opts);
        assert_eq!(
            strip_columns(&read_artifact("pool_ablation"), &["time_s"]),
            include_str!("golden/pool_ablation.stripped.csv"),
            "pool-ablation deviates from the pinned golden at sampler_threads={threads}"
        );
    }
}
