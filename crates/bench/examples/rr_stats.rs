//! Reproducibility probe for the RR sampling workload (feeds BENCH_rrsets.json).
//! Parameterized via env vars N, M, BATCH; min-of-5 timing.

use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::generators;

fn env(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = env("N", 20_000);
    let m = env("M", 160_000);
    let batch = env("BATCH", 50_000);
    let mut rng = SmallRng::seed_from_u64(42);
    let g = generators::chung_lu_directed(n, m, 2.3, &mut rng);
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let mut best = std::time::Duration::MAX;
    let mut total_nodes = 0usize;
    for round in 0..5u64 {
        let t0 = std::time::Instant::now();
        let (sets, _) = rm_rrsets::PreparedSampler::new(&g, &probs).sample_batch(
            &g,
            batch,
            7,
            round * batch as u64,
        );
        best = best.min(t0.elapsed());
        total_nodes = sets.iter().map(|s| s.len()).sum();
    }
    println!(
        "n={n} m={m} batch={batch}: min {best:?}  nodes={total_nodes} (avg {:.1})  {:.1} Kset/s",
        total_nodes as f64 / batch as f64,
        batch as f64 / best.as_secs_f64() / 1e3,
    );
}
