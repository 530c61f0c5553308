//! Property tests for the lazy-mixing TIC pipeline (proptest shim):
//!
//! 1. **Mixture range safety**: any normalized topic mixture over any
//!    per-topic probability table yields mixed edge probabilities in
//!    `[0, 1]`, and the lazy per-edge mix agrees bitwise with the flattened
//!    Eq. 1 vector (same arithmetic, same order).
//! 2. **Delta-mixture degeneracy**: a point mass on topic `z` makes the
//!    arena TIC sampler bit-identical to the flat IC sampler run on column
//!    `z` of the table.
//! 3. **Zero-weight topics are structurally unselectable**: when every edge
//!    lives in exactly one topic, no RR set ever traverses an edge whose
//!    topic carries zero mixture weight.

use std::sync::Arc;

use proptest::prelude::*;
use rm_diffusion::{AdProbs, DiffusionModel, TicModel, TopicDistribution};
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

/// Edge-major per-topic table with entry `(e, z)` drawn from `raws`.
fn table_from_raws(g: &CsrGraph, l: usize, raws: &[f32]) -> TicModel {
    let probs: Vec<f32> = (0..g.num_edges() * l)
        .map(|k| raws[k % raws.len()])
        .collect();
    TicModel::from_matrix(g, l, probs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Normalized mixtures keep every mixed probability inside `[0, 1]`,
    /// and lazy `mixed_prob` is bitwise the flattened `ad_probs` entry.
    #[test]
    fn normalized_mixtures_stay_in_unit_interval(
        n in 3usize..12,
        choices in prop::collection::vec(0usize..144, 1..40),
        l in 1usize..6,
        raws in prop::collection::vec(0.0f32..=1.0, 48),
        weights in prop::collection::vec(0.0f32..1.0, 6),
    ) {
        let g = graph_from_choices(n, &choices);
        let tic = table_from_raws(&g, l, &raws);
        // Guard against the all-zero draw `TopicDistribution::new` rejects.
        let mut w = weights[..l].to_vec();
        if w.iter().all(|&x| x <= 0.0) {
            w[0] = 1.0;
        }
        let gamma = TopicDistribution::new(&w);
        let flat = tic.ad_probs(&gamma);
        for eid in 0..g.num_edges() as u32 {
            let p = tic.mixed_prob(eid, &gamma);
            prop_assert!((0.0..=1.0).contains(&p), "mixed p = {p} out of range");
            prop_assert_eq!(
                p.to_bits(),
                flat.get(eid).to_bits(),
                "lazy mix and Eq. 1 flatten disagree on edge {}",
                eid
            );
        }
    }

    /// A delta mixture on topic `z` yields arena RR sets bit-identical to
    /// flat IC run on the table's column `z`.
    #[test]
    fn delta_mixture_matches_flat_ic_column(
        n in 3usize..12,
        choices in prop::collection::vec(0usize..144, 1..40),
        l in 2usize..5,
        raws in prop::collection::vec(0.0f32..=1.0, 48),
        z_pick in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let g = graph_from_choices(n, &choices);
        let tic = Arc::new(table_from_raws(&g, l, &raws));
        let z = z_pick % l;
        let column = AdProbs::from_vec(
            (0..g.num_edges() as u32).map(|e| tic.topic_prob(e, z)).collect(),
        );
        let tic_model = DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::delta(l, z));
        let ic_model = DiffusionModel::ic(column);
        let (tic_sets, _) = PreparedSampler::for_model(&g, &tic_model).sample_batch(&g, 128, seed, 0);
        let (ic_sets, _) = PreparedSampler::for_model(&g, &ic_model).sample_batch(&g, 128, seed, 0);
        prop_assert_eq!(tic_sets.len(), ic_sets.len());
        for (a, b) in tic_sets.iter().zip(ic_sets.iter()) {
            prop_assert_eq!(a, b, "delta-TIC and flat-IC RR sets diverged");
        }
    }

    /// With every edge assigned to exactly one topic, an RR set never
    /// contains a node whose only reverse links into the set run through
    /// zero-weight topics: each non-root member must have an out-edge to an
    /// earlier member whose topic carries positive mixture mass.
    #[test]
    fn zero_weight_topics_are_unselectable(
        n in 3usize..12,
        choices in prop::collection::vec(0usize..144, 1..40),
        l in 2usize..5,
        topic_of in prop::collection::vec(0usize..5, 40),
        raws in prop::collection::vec(0.01f32..=1.0, 40),
        weights in prop::collection::vec(prop::bool::ANY, 5),
        seed in 0u64..1_000_000,
    ) {
        let g = graph_from_choices(n, &choices);
        // One-hot table: edge e has probability only in topic topic_of[e].
        let mut probs = vec![0.0f32; g.num_edges() * l];
        for e in 0..g.num_edges() {
            let z = topic_of[e % topic_of.len()] % l;
            probs[e * l + z] = raws[e % raws.len()];
        }
        let tic = Arc::new(TicModel::from_matrix(&g, l, probs));
        // Mixture with hard zeros on some topics (at least one positive).
        let mut w: Vec<f32> = (0..l)
            .map(|z| if weights[z % weights.len()] { 1.0 } else { 0.0 })
            .collect();
        if w.iter().all(|&x| x <= 0.0) {
            w[0] = 1.0;
        }
        let gamma = TopicDistribution::new(&w);
        let live = |eid: u32| {
            (0..l).any(|z| gamma.weight(z) > 0.0 && tic.topic_prob(eid, z) > 0.0)
        };
        let model = DiffusionModel::tic(Arc::clone(&tic), gamma.clone());
        let (sets, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 256, seed, 0);
        for set in sets.iter() {
            for (k, &u) in set.iter().enumerate().skip(1) {
                let reachable = g.out_edges(u).any(|(eid, v)| {
                    set[..k].contains(&v) && live(eid)
                });
                prop_assert!(
                    reachable,
                    "node {u} joined an RR set without a live-topic edge into it"
                );
            }
        }
    }
}
