//! Incremental sample growth (Algorithm 3's UpdateEstimates path): cost of
//! appending RR sets to an index that already has committed seeds.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::generators;
use rm_rrsets::RrCoverage;

fn bench_growth(c: &mut Criterion) {
    let n = 10_000usize;
    let mut rng = SmallRng::seed_from_u64(13);
    let g = generators::chung_lu_directed(n, 80_000, 2.3, &mut rng);
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let sampler = rm_rrsets::PreparedSampler::new(&g, &probs);
    let (initial, _) = sampler.sample_batch(&g, 50_000, 1, 0);
    let (growth, _) = sampler.sample_batch(&g, 50_000, 1, 50_000);

    // Base index with 10 committed seeds.
    let mut base = RrCoverage::new(n);
    let mut is_seed = vec![false; n];
    base.add_batch(&initial, &is_seed);
    for v in base.greedy_extension(10, 0, |_| false).picks {
        base.cover_with(v);
        is_seed[v as usize] = true;
    }

    let mut group = c.benchmark_group("sample_growth");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(15);
    group.throughput(Throughput::Elements(growth.len() as u64));
    group.bench_function("append_50k_with_seed_marking", |b| {
        b.iter(|| {
            let mut idx = base.clone();
            idx.add_batch(&growth, &is_seed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_growth);
criterion_main!(benches);
