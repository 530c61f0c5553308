//! Coverage-index operations: batch insertion and greedy covering.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::generators;
use rm_rrsets::{RrArena, RrCoverage};

fn setup(n: usize, m: usize, theta: usize) -> (usize, RrArena) {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = generators::chung_lu_directed(n, m, 2.3, &mut rng);
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let (sets, _) = rm_rrsets::PreparedSampler::new(&g, &probs).sample_batch(&g, theta, 11, 0);
    (n, sets)
}

fn bench_add_batch(c: &mut Criterion) {
    let (n, sets) = setup(10_000, 80_000, 100_000);
    let mut group = c.benchmark_group("coverage_index");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(15);
    group.throughput(Throughput::Elements(sets.len() as u64));
    group.bench_function("add_batch_100k", |b| {
        let empty_mask = vec![false; n];
        b.iter(|| {
            let mut idx = RrCoverage::new(n);
            idx.add_batch(&sets, &empty_mask);
            idx.num_sets()
        });
    });
    group.bench_function("greedy_cover_50", |b| {
        let empty_mask = vec![false; n];
        let mut base = RrCoverage::new(n);
        base.add_batch(&sets, &empty_mask);
        b.iter(|| {
            let mut idx = base.clone();
            let mut covered = 0;
            for _ in 0..50 {
                let mut best = (0u32, 0.0);
                for v in 0..n as u32 {
                    let cv = idx.coverage(v);
                    if cv > best.1 {
                        best = (v, cv);
                    }
                }
                covered += idx.cover_with(best.0);
            }
            covered
        });
    });
    group.finish();
}

criterion_group!(benches, bench_add_batch);
criterion_main!(benches);
