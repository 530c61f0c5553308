//! End-to-end RR-set pipeline throughput on a Table-3-style workload
//! (DBLP-like scale: a power-law graph too large for cache, Weighted
//! Cascade): batch sampling into storage — under both the IC and LT
//! sampling modes — coverage-index ingestion, and the resident memory the
//! index reports afterwards. The recorded before/after numbers live in
//! `BENCH_rrsets.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{DiffusionModel, TicModel, TopicDistribution};
use rm_graph::generators;
use rm_rrsets::RrCoverage;

const N: usize = 100_000;
const M: usize = 1_000_000;
const BATCH: usize = 50_000;

fn bench_rrsets_throughput(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(42);
    let g = generators::chung_lu_directed(N, M, 2.3, &mut rng);
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));

    // CI sets RRSETS_BENCH_QUICK=1: a short smoke measurement that exercises
    // the full pipeline without spending minutes on a noisy shared runner.
    // The recorded BENCH_rrsets.json numbers come from full local runs.
    let quick = std::env::var("RRSETS_BENCH_QUICK").is_ok();
    let mut group = c.benchmark_group("rrsets_throughput");
    group.measurement_time(std::time::Duration::from_millis(if quick {
        400
    } else {
        3000
    }));
    group.sample_size(if quick { 2 } else { 10 });
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("sample_batch_50k", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            rm_rrsets::PreparedSampler::new(&g, &probs).sample_batch(
                &g,
                BATCH,
                7,
                round * BATCH as u64,
            )
        });
    });

    // LT arm: the same WC-derived parameters reinterpreted as LT in-weights
    // (1/indeg — exactly feasible), sampled through the per-node alias-table
    // reverse walk.
    let lt = DiffusionModel::lt(&g, probs.clone());
    group.bench_function("sample_batch_lt_50k", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            rm_rrsets::PreparedSampler::for_model(&g, &lt).sample_batch(
                &g,
                BATCH,
                7,
                round * BATCH as u64,
            )
        });
    });

    // TIC arm: an L = 10 table whose every topic column is the WC prior,
    // under a peaked mixture — the mixed probability equals the flat IC
    // arm's on every edge, so RR-set sizes match and the delta against
    // `sample_batch_50k` is pure lazy-Eq.-1-mixing overhead (10-float dot
    // product per candidate edge instead of one table read).
    let mut wc_rows = Vec::with_capacity(g.num_edges() * 10);
    for e in 0..g.num_edges() as u32 {
        wc_rows.extend(std::iter::repeat_n(probs.get(e), 10));
    }
    let tic = std::sync::Arc::new(TicModel::from_matrix(&g, 10, wc_rows));
    let tic_model = DiffusionModel::tic(tic, TopicDistribution::peaked(10, 3, 0.91));
    group.bench_function("sample_batch_tic_50k", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            rm_rrsets::PreparedSampler::for_model(&g, &tic_model).sample_batch(
                &g,
                BATCH,
                7,
                round * BATCH as u64,
            )
        });
    });

    let (sets, _) = rm_rrsets::PreparedSampler::new(&g, &probs).sample_batch(&g, BATCH, 11, 0);
    group.bench_function("coverage_ingest_50k", |b| {
        let mask = vec![false; N];
        b.iter(|| {
            let mut idx = RrCoverage::new(N);
            idx.add_batch(&sets, &mask);
            idx.num_sets()
        });
    });

    // Shared-pool arm (PR 8): three identical-model tenants served by ONE
    // group arena. Each iteration extends the group's logical stream by a
    // batch through `with_range` — the pooled counterpart of
    // `sample_batch_50k`, so the delta is pool bookkeeping (lock + arena
    // append), not sampling.
    let models = vec![
        DiffusionModel::ic(probs.clone()),
        DiffusionModel::ic(probs.clone()),
        DiffusionModel::ic(probs.clone()),
    ];
    let pool = rm_rrsets::SharedRrPool::build(&g, &models, 7, usize::MAX);
    group.bench_function("pool_grow_identical_3ads_50k", |b| {
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            pool.with_range(
                &g,
                0,
                (round - 1) * BATCH,
                round * BATCH,
                |arena, _, hi, _| (arena.len(), hi),
            )
        });
    });

    // Weighted ingestion: the reweighted-tenant path of the coverage index
    // (per-set f32 importance mass instead of unit counts).
    let unit_weights = vec![1.0f32; BATCH];
    group.bench_function("coverage_ingest_weighted_50k", |b| {
        let mask = vec![false; N];
        b.iter(|| {
            let mut idx = RrCoverage::new_weighted(N);
            idx.add_range_weighted(&sets, 0, BATCH, &mask, &unit_weights);
            idx.num_sets()
        });
    });
    group.finish();

    // Not a timing: the resident bytes the index reports for this sample
    // (Table 3's `memory_bytes`), printed for BENCH_rrsets.json.
    let mut idx = RrCoverage::new(N);
    idx.add_batch(&sets, &vec![false; N]);
    println!(
        "rrsets_throughput/memory_bytes_50k: {}\n",
        idx.memory_bytes()
    );
}

criterion_group!(benches, bench_rrsets_throughput);
criterion_main!(benches);
