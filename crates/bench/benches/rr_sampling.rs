//! RR-set sampling throughput — the dominant cost driver of TI-CARM/TI-CSRM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::generators;

fn bench_rr_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rr_sampling");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(20);
    for &(n, m) in &[(5_000usize, 40_000usize), (20_000, 160_000)] {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::chung_lu_directed(n, m, 2.3, &mut rng);
        let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
        let batch = 20_000usize;
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("wc", format!("n{n}")), &g, |b, g| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                rm_rrsets::PreparedSampler::new(g, &probs).sample_batch(
                    g,
                    batch,
                    7,
                    round * batch as u64,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rr_sampling);
criterion_main!(benches);
