//! Property tests for the LT pipeline (proptest shim):
//!
//! 1. **Normalization feasibility**: water-filling arbitrary non-negative
//!    edge weights always yields `lt_weights_feasible`.
//! 2. **Zero-weight safety**: the arena alias-table sampler never traverses
//!    a zero-weight in-edge, for any weight assignment with zeros mixed in.

use proptest::prelude::*;
use rm_diffusion::{lt_weights_feasible, normalize_lt_weights, AdProbs, DiffusionModel};
use rm_graph::builder::graph_from_edges;
use rm_graph::{CsrGraph, NodeId};
use rm_rrsets::PreparedSampler;

/// Builds a small random graph from an edge-chooser vector: entry `k`
/// encodes the candidate pair `(k / n, k % n)`, self-loops dropped,
/// duplicates deduped by the builder.
fn graph_from_choices(n: usize, choices: &[usize]) -> CsrGraph {
    let edges: Vec<(NodeId, NodeId)> = choices
        .iter()
        .map(|&k| ((k / n % n) as NodeId, (k % n) as NodeId))
        .filter(|&(u, v)| u != v)
        .collect();
    graph_from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Water-filling any non-negative weight assignment (raw values up to 2,
    /// far past the simplex) always lands inside LT feasibility, and never
    /// touches nodes that were already feasible.
    #[test]
    fn normalization_always_feasible(
        n in 3usize..12,
        choices in prop::collection::vec(0usize..144, 1..40),
        raws in prop::collection::vec(0.0f32..2.0, 40),
    ) {
        let g = graph_from_choices(n, &choices);
        let weights = AdProbs::from_vec(
            (0..g.num_edges()).map(|e| raws[e % raws.len()].min(1.0)).collect(),
        );
        let norm = normalize_lt_weights(&g, &weights);
        prop_assert!(
            lt_weights_feasible(&g, &norm),
            "normalized weights infeasible on {} nodes / {} edges",
            g.num_nodes(),
            g.num_edges()
        );
        // Per-node: already-feasible nodes keep their weights bit-for-bit.
        for v in 0..g.num_nodes() as NodeId {
            let total: f64 = g.in_edges(v).map(|(e, _)| weights.get(e) as f64).sum();
            if total <= 1.0 {
                for (e, _) in g.in_edges(v) {
                    prop_assert_eq!(norm.get(e), weights.get(e));
                }
            }
        }
    }

    /// The LT alias-table sampler never selects a zero-weight in-edge: every
    /// consecutive pair `(v, u)` of an arena-sampled LT RR set is a reverse
    /// traversal of edge `u → v`, whose weight must be positive.
    #[test]
    fn alias_sampler_never_picks_zero_weight_edges(
        n in 3usize..12,
        choices in prop::collection::vec(0usize..144, 1..40),
        raws in prop::collection::vec(0.0f32..1.0, 40),
        zero_mask in prop::collection::vec(prop::bool::ANY, 40),
        seed in 0u64..1_000_000,
    ) {
        let g = graph_from_choices(n, &choices);
        let weights = AdProbs::from_vec(
            (0..g.num_edges())
                .map(|e| if zero_mask[e % zero_mask.len()] { 0.0 } else { raws[e % raws.len()] })
                .collect(),
        );
        let model = DiffusionModel::lt(&g, weights);
        let (sets, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 256, seed, 0);
        for set in sets.iter() {
            for pair in set.windows(2) {
                let (v, u) = (pair[0], pair[1]);
                let eid = g
                    .in_edges(v)
                    .find(|&(_, src)| src == u)
                    .map(|(e, _)| e)
                    .expect("traversed pair must be a graph edge");
                prop_assert!(
                    model.params().get(eid) > 0.0,
                    "zero-weight edge {u} -> {v} traversed"
                );
            }
        }
    }
}
