//! End-to-end engine wall time under the two sample-sizing strategies on a
//! small Table-3-style TI-CSRM workload: the TIM-style fixed-θ schedule vs
//! the OPIM-style online stopping rule (`SamplingStrategy::OnlineBounds`),
//! plus the `selection_rounds` arm comparing the snapshot/arbiter round
//! loop across `selection_threads` at the fig5-style `h = 10`. The
//! recorded full-size numbers live in `BENCH_rrsets.json` under
//! `opim_vs_fixed_theta` and `parallel_selection_rounds`.

use criterion::{criterion_group, criterion_main, Criterion};
use rm_bench::setup::{scalability_config, scalability_instance};
use rm_core::{AlgorithmKind, SamplingStrategy, ScalableConfig, TiEngine};
use rm_graph::SyntheticDataset;

fn bench_engine_sampling(c: &mut Criterion) {
    // DBLP-like at a bench-friendly scale; budgets scale with the dataset
    // like the fig5/table3 sweep does.
    let scale = 0.01;
    let inst = scalability_instance(
        SyntheticDataset::DblpLike,
        5,
        10_000.0 * scale,
        scale,
        20_170_419,
    );

    let quick = std::env::var("RRSETS_BENCH_QUICK").is_ok();
    let mut group = c.benchmark_group("engine_sampling");
    group.measurement_time(std::time::Duration::from_millis(if quick {
        400
    } else {
        8000
    }));
    group.sample_size(if quick { 2 } else { 10 });
    for strategy in [SamplingStrategy::FixedTheta, SamplingStrategy::OnlineBounds] {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                let cfg = ScalableConfig {
                    sampling: strategy,
                    ..scalability_config(20_170_419)
                };
                let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
                (alloc.num_seeds(), stats.rr_sets_sampled)
            });
        });
    }
    group.finish();

    // Not a timing: the sets-drawn ratio this workload realizes, printed
    // for BENCH_rrsets.json bookkeeping.
    for strategy in [SamplingStrategy::FixedTheta, SamplingStrategy::OnlineBounds] {
        let cfg = ScalableConfig {
            sampling: strategy,
            ..scalability_config(20_170_419)
        };
        let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        println!(
            "engine_sampling/{}: rr_sets_sampled {} (θ total {}, bound checks {})",
            strategy.name(),
            stats.rr_sets_sampled,
            stats.total_theta(),
            stats.bound_checks,
        );
    }
}

/// The `selection_rounds` arm: TI-CSRM on the fig5-style `h = 10`
/// multi-tenant workload, sweeping `selection_threads` — the per-round
/// cross-advertiser selection fan-out. Allocations are bit-identical
/// across arms (asserted below); only wall time may move.
///
/// Note the regime: at this bench scale `n < w = 5000`, so every ad's
/// inspection window spans the whole candidate pool and every commit
/// invalidates every cached proposal — the contention-saturated worst case
/// (the printed profile shows refreshes ≈ h·rounds). The recorded
/// `parallel_selection_rounds` numbers in BENCH_rrsets.json use scale 0.03
/// (`n ≈ 2w`), where caching cuts refreshes roughly in half.
fn bench_selection_rounds(c: &mut Criterion) {
    let scale = 0.01;
    let h = 10;
    let inst = scalability_instance(
        SyntheticDataset::DblpLike,
        h,
        10_000.0 * scale,
        scale,
        20_170_419,
    );
    let cfg_at = |threads: usize| ScalableConfig {
        selection_threads: threads,
        ..scalability_config(20_170_419)
    };

    let quick = std::env::var("RRSETS_BENCH_QUICK").is_ok();
    let mut group = c.benchmark_group("selection_rounds");
    group.measurement_time(std::time::Duration::from_millis(if quick {
        400
    } else {
        8000
    }));
    group.sample_size(if quick { 2 } else { 10 });
    let hw = rm_graph::par::available_cores();
    // On hosts with ≤ 2 cores the hardware arm coincides with threads-2;
    // don't register (and pay for) the same configuration twice.
    let mut arms = vec![1usize, 2];
    if hw > 2 {
        arms.push(hw);
    }
    for threads in arms {
        group.bench_function(format!("threads-{threads}"), |b| {
            b.iter(|| {
                let (alloc, stats) =
                    TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg_at(threads)).run();
                (alloc.num_seeds(), stats.rounds)
            });
        });
    }
    group.finish();

    // Not a timing: contention/caching profile of the round loop, printed
    // for BENCH_rrsets.json bookkeeping — plus the bit-identity check
    // between the sequential and fanned-out arms.
    let (a1, s1) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg_at(1)).run();
    let (a2, s2) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg_at(hw.max(2))).run();
    assert_eq!(a1, a2, "selection fan-out changed the allocation");
    assert_eq!(s1.rounds, s2.rounds);
    assert_eq!(s1.candidate_refreshes, s2.candidate_refreshes);
    println!(
        "selection_rounds: h={h} rounds={} refreshes={} (sequential would be ~{}), contended_rounds={}, invalidated={}",
        s1.rounds,
        s1.candidate_refreshes,
        s1.rounds as u64 * h as u64,
        s1.contended_rounds,
        s1.invalidated_candidates,
    );
}

criterion_group!(benches, bench_engine_sampling, bench_selection_rounds);
criterion_main!(benches);
