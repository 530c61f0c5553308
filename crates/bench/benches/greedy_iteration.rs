//! Full engine runs: TI-CSRM vs TI-CARM end-to-end on a fixed instance,
//! TI-CSRM at the paper's window (w = 5000), plus the lazy-vs-eager
//! ablation at bench resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use rm_bench::setup::{quality_instance, ModelKind};
use rm_core::{AlgorithmKind, ScalableConfig, TiEngine, Window};
use rm_graph::SyntheticDataset;

fn bench_engine(c: &mut Criterion) {
    let inst = quality_instance(
        SyntheticDataset::EpinionsLike,
        ModelKind::Linear.at(0.2),
        5,
        0.02,
        1,
    );
    let cfg = ScalableConfig {
        epsilon: 0.3,
        max_sets_per_ad: 500_000,
        ..Default::default()
    };

    let mut group = c.benchmark_group("engine");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.sample_size(10);
    group.bench_function("ti_csrm", |b| {
        b.iter(|| {
            TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg)
                .run()
                .1
                .rounds
        });
    });
    group.bench_function("ti_carm", |b| {
        b.iter(|| {
            TiEngine::new(&inst, AlgorithmKind::TiCarm, cfg)
                .run()
                .1
                .rounds
        });
    });
    let paper_window = ScalableConfig {
        window: Window::Size(5000),
        ..cfg
    };
    group.bench_function("ti_csrm_w5000", |b| {
        b.iter(|| {
            TiEngine::new(&inst, AlgorithmKind::TiCsrm, paper_window)
                .run()
                .1
                .rounds
        });
    });
    // Not a timing: the selection work behind the w = 5000 arm.
    let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, paper_window).run();
    println!(
        "ti_csrm_w5000: rounds={} candidate_evaluations={} candidate_refreshes={}",
        stats.rounds, stats.candidate_evaluations, stats.candidate_refreshes,
    );
    let eager = ScalableConfig { lazy: false, ..cfg };
    group.bench_function("ti_csrm_eager", |b| {
        b.iter(|| {
            TiEngine::new(&inst, AlgorithmKind::TiCsrm, eager)
                .run()
                .1
                .rounds
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
