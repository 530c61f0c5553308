//! Stand-alone RR-based spread estimators over fresh samples.
//!
//! These power two things:
//!
//! 1. **Incentive pricing**: [`rr_singleton_spreads_model`] estimates
//!    `σ_i({u})` for *every* node from a single sample
//!    (`σ({u}) = n · Pr[u ∈ R]`), replacing the paper's 5K-run Monte-Carlo
//!    precomputation at a fraction of the cost (see DESIGN.md →
//!    Substitutions).
//! 2. **Algorithm-independent evaluation**: the experiment harness re-scores
//!    each algorithm's final allocation on a fresh common sample so revenue
//!    comparisons are not biased by each algorithm's internal sample.

use rm_diffusion::DiffusionModel;
use rm_graph::{CsrGraph, NodeId};

use crate::sampler::PreparedSampler;

/// Unbiased estimate of `σ(seeds)` under an arbitrary diffusion model from
/// `theta` fresh RR sets: `n · |{R : R ∩ seeds ≠ ∅}| / θ`.
pub fn rr_estimate_spread_model(
    g: &CsrGraph,
    model: &DiffusionModel,
    seeds: &[NodeId],
    theta: usize,
    seed: u64,
) -> f64 {
    if seeds.is_empty() || theta == 0 || g.num_nodes() == 0 {
        return 0.0;
    }
    let mut is_seed = vec![false; g.num_nodes()];
    for &s in seeds {
        is_seed[s as usize] = true;
    }
    let (sets, _) = PreparedSampler::for_model(g, model).sample_batch(g, theta, seed, 0);
    let hit = sets
        .iter()
        .filter(|set| set.iter().any(|&u| is_seed[u as usize]))
        .count();
    g.num_nodes() as f64 * hit as f64 / theta as f64
}

/// Estimates the singleton spread of **every** node under an arbitrary
/// diffusion model from one sample of `theta` RR sets.
pub fn rr_singleton_spreads_model(
    g: &CsrGraph,
    model: &DiffusionModel,
    theta: usize,
    seed: u64,
) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 || theta == 0 {
        return vec![0.0; n];
    }
    let (sets, _) = PreparedSampler::for_model(g, model).sample_batch(g, theta, seed, 0);
    let mut counts = vec![0u64; n];
    // Membership counting does not care about set boundaries: scan the
    // arena's concatenated node storage directly.
    for &u in sets.node_slice() {
        counts[u as usize] += 1;
    }
    let scale = n as f64 / theta as f64;
    counts.into_iter().map(|c| c as f64 * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_diffusion::world as world_shim;
    use rm_diffusion::{estimate_spread, AdProbs};
    use rm_graph::builder::graph_from_edges;

    #[test]
    fn agrees_with_exact_enumeration() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let probs = AdProbs::from_vec(vec![0.4, 0.6, 0.5, 0.3, 0.7]);
        let exact = world_shim::exact_spread_enumeration(&g, &probs, &[0]);
        let rr = rr_estimate_spread_model(&g, &DiffusionModel::ic(probs), &[0], 120_000, 3);
        assert!((exact - rr).abs() < 0.05, "exact {exact}, RR {rr}");
    }

    #[test]
    fn agrees_with_monte_carlo_on_sets() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3)]);
        let probs = AdProbs::from_vec(vec![0.5; 5]);
        let mc = estimate_spread(&g, &probs, &[0, 4], 80_000, 5).spread;
        let rr = rr_estimate_spread_model(&g, &DiffusionModel::ic(probs), &[0, 4], 80_000, 6);
        assert!((mc - rr).abs() < 0.06, "MC {mc}, RR {rr}");
    }

    #[test]
    fn singleton_spreads_match_chain_truth() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let model = DiffusionModel::ic(AdProbs::from_vec(vec![1.0; 3]));
        let s = rr_singleton_spreads_model(&g, &model, 40_000, 7);
        for (u, expect) in [(0usize, 4.0), (1, 3.0), (2, 2.0), (3, 1.0)] {
            assert!(
                (s[u] - expect).abs() < 0.08,
                "node {u}: {} vs {expect}",
                s[u]
            );
        }
    }

    #[test]
    fn lt_estimator_agrees_with_forward_lt_simulation() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let w = AdProbs::from_vec(vec![0.4, 0.6, 0.5, 0.3, 0.7]);
        let model = DiffusionModel::lt(&g, w.clone());
        let forward = rm_diffusion::estimate_lt_spread(&g, model.params(), &[0], 80_000, 11);
        let rr = rr_estimate_spread_model(&g, &model, &[0], 80_000, 12);
        assert!((forward - rr).abs() < 0.05, "forward {forward}, RR {rr}");
    }

    #[test]
    fn lt_singleton_spreads_match_chain_truth() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let model = DiffusionModel::lt(&g, AdProbs::from_vec(vec![1.0; 3]));
        let s = rr_singleton_spreads_model(&g, &model, 40_000, 13);
        for (u, expect) in [(0usize, 4.0), (1, 3.0), (2, 2.0), (3, 1.0)] {
            assert!(
                (s[u] - expect).abs() < 0.08,
                "node {u}: {} vs {expect}",
                s[u]
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let model = DiffusionModel::ic(AdProbs::from_vec(vec![0.5]));
        assert_eq!(rr_estimate_spread_model(&g, &model, &[], 100, 1), 0.0);
        assert_eq!(rr_estimate_spread_model(&g, &model, &[0], 0, 1), 0.0);
    }
}
