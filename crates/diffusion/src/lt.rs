//! Linear Threshold (LT) propagation — an extension beyond the paper.
//!
//! The paper's framework only requires the spread function to be monotone
//! and submodular; Kempe et al. prove LT satisfies both, so every RM
//! algorithm in this workspace applies unchanged if engagements propagate by
//! thresholds rather than independent coin flips. This module provides the
//! forward simulator and the LT live-edge ("one incoming edge per node")
//! sampler, which makes the same RR-set machinery valid under LT.
//!
//! Feasible LT in-weights must sum to at most 1 per node. Weight vectors
//! derived from IC-style edge probabilities (uniform, trivalency, topical
//! mixtures) routinely violate that on high-in-degree nodes;
//! [`normalize_lt_weights`] water-fills them back into the simplex at
//! construction time so samplers never have to reject.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rm_graph::{CsrGraph, NodeId};

use crate::tic::AdProbs;

/// Validates LT weight feasibility: for every node, incoming weights must
/// sum to at most 1 (weights are read from the per-edge array, so the
/// Weighted-Cascade construction `1/indeg(v)` is exactly LT-feasible).
pub fn lt_weights_feasible(g: &CsrGraph, weights: &AdProbs) -> bool {
    (0..g.num_nodes() as NodeId).all(|v| {
        let total: f64 = g.in_edges(v).map(|(e, _)| weights.get(e) as f64).sum();
        total <= 1.0 + 1e-6
    })
}

/// Water-fills per-edge weights into LT feasibility: any node whose incoming
/// weights sum to `s > 1` has them scaled by `1/s`, preserving their
/// proportions; already-feasible nodes are left untouched bit-for-bit.
///
/// Synthetic weight assignments (uniform-p, trivalency, topical TIC
/// mixtures) exceed the simplex exactly on high-in-degree hubs — the nodes
/// power-law generators always produce — so LT instances normalize at
/// construction instead of rejecting at sample time. The result always
/// passes [`lt_weights_feasible`]: the per-weight f32 rounding error is
/// relative (≤ 2⁻²⁴ per term), far inside the feasibility slack.
pub fn normalize_lt_weights(g: &CsrGraph, weights: &AdProbs) -> AdProbs {
    let mut out: Vec<f32> = weights.as_slice().to_vec();
    let mut changed = false;
    for v in 0..g.num_nodes() as NodeId {
        let total: f64 = g.in_edges(v).map(|(e, _)| weights.get(e) as f64).sum();
        if total > 1.0 {
            let scale = 1.0 / total;
            for (e, _) in g.in_edges(v) {
                out[e as usize] = (f64::from(out[e as usize]) * scale) as f32;
            }
            changed = true;
        }
    }
    if changed {
        AdProbs::from_vec(out)
    } else {
        weights.clone()
    }
}

/// Reusable scratch for LT cascade simulation: epoch-stamped activation
/// marks plus lazily drawn thresholds, so consecutive simulations cost
/// O(touched), not O(n).
#[derive(Clone, Debug)]
pub struct LtWorkspace {
    /// Activation epoch stamps.
    active: Vec<u32>,
    /// Epoch stamps marking nodes whose threshold has been drawn.
    drawn: Vec<u32>,
    /// `threshold − accumulated in-weight`, valid while `drawn` is current.
    remaining: Vec<f32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl LtWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        LtWorkspace {
            active: vec![0; n],
            drawn: vec![0; n],
            remaining: vec![0.0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.active.fill(0);
            self.drawn.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }
}

/// One LT cascade: every node draws a uniform threshold at first exposure; a
/// node activates when the weight sum of its active in-neighbours reaches
/// its threshold. Returns the number of active nodes (seeds included).
pub fn simulate_lt_cascade<R: Rng + ?Sized>(
    g: &CsrGraph,
    weights: &AdProbs,
    seeds: &[NodeId],
    ws: &mut LtWorkspace,
    rng: &mut R,
) -> usize {
    ws.begin();
    for &s in seeds {
        if ws.active[s as usize] != ws.epoch {
            ws.active[s as usize] = ws.epoch;
            ws.queue.push(s);
        }
    }
    let mut qi = 0;
    while qi < ws.queue.len() {
        let u = ws.queue[qi];
        qi += 1;
        for (eid, v) in g.out_edges(u) {
            if ws.active[v as usize] == ws.epoch {
                continue;
            }
            if ws.drawn[v as usize] != ws.epoch {
                ws.drawn[v as usize] = ws.epoch;
                ws.remaining[v as usize] = rng.random::<f32>();
            }
            ws.remaining[v as usize] -= weights.get(eid);
            if ws.remaining[v as usize] <= 0.0 {
                ws.active[v as usize] = ws.epoch;
                ws.queue.push(v);
            }
        }
    }
    ws.queue.len()
}

/// Like [`simulate_lt_cascade`] but returns the activated node set (for
/// engagement-trace inspection, mirroring `simulate_cascade_nodes`).
pub fn simulate_lt_cascade_nodes<R: Rng + ?Sized>(
    g: &CsrGraph,
    weights: &AdProbs,
    seeds: &[NodeId],
    ws: &mut LtWorkspace,
    rng: &mut R,
) -> Vec<NodeId> {
    simulate_lt_cascade(g, weights, seeds, ws, rng);
    ws.queue.clone()
}

/// Estimates the LT expected spread with `runs` simulations.
pub fn estimate_lt_spread(
    g: &CsrGraph,
    weights: &AdProbs,
    seeds: &[NodeId],
    runs: usize,
    seed: u64,
) -> f64 {
    if seeds.is_empty() || runs == 0 {
        return 0.0;
    }
    let mut ws = LtWorkspace::new(g.num_nodes());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0usize;
    for _ in 0..runs {
        total += simulate_lt_cascade(g, weights, seeds, &mut ws, &mut rng);
    }
    total as f64 / runs as f64
}

/// Estimates the LT singleton spread `σ({u})` of **every** node with `runs`
/// simulations each, parallelized over node ranges (the LT counterpart of
/// `singleton_spreads_mc`, used for incentive pricing under LT).
pub fn singleton_spreads_lt_mc(
    g: &CsrGraph,
    weights: &AdProbs,
    runs: usize,
    seed: u64,
) -> Vec<f64> {
    crate::spread::singleton_spreads_with(
        g.num_nodes(),
        runs,
        seed,
        crate::spread::num_threads(g.num_nodes()),
        || LtWorkspace::new(g.num_nodes()),
        |u, ws, rng| simulate_lt_cascade(g, weights, &[u], ws, rng),
    )
}

/// Samples one LT reverse-reachable set: walking backwards, each node picks
/// **at most one** incoming edge (edge `e` with probability `w_e`, no edge
/// with probability `1 − Σ w`), per Kempe et al.'s live-edge model for LT.
///
/// This is the reference implementation the arena sampler's frequencies are
/// validated against; the hot path lives in `rm_rrsets::sampler`.
pub fn sample_lt_rr_set<R: Rng + ?Sized>(
    g: &CsrGraph,
    weights: &AdProbs,
    rng: &mut R,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    let root = rng.random_range(0..n) as NodeId;
    out.push(root);
    // Membership-only cycle guard: never iterated, so hash order cannot leak
    // into results. rm-lint: allow(nondet-iter)
    let mut seen = std::collections::HashSet::new();
    seen.insert(root);
    let mut cur = root;
    loop {
        // Pick at most one in-edge of `cur` with probability proportional to
        // its weight (residual mass = stop).
        let mut x: f64 = rng.random();
        let mut picked: Option<NodeId> = None;
        for (eid, u) in g.in_edges(cur) {
            x -= weights.get(eid) as f64;
            if x < 0.0 {
                picked = Some(u);
                break;
            }
        }
        match picked {
            Some(u) if !seen.contains(&u) => {
                seen.insert(u);
                out.push(u);
                cur = u;
            }
            _ => break, // stopped, or walked into a cycle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use rm_diffusion_test_helpers::*;
    use rm_graph::builder::graph_from_edges;

    mod rm_diffusion_test_helpers {
        pub use crate::tic::TicModel;
        pub use crate::topic::TopicDistribution;
    }

    #[test]
    fn wc_weights_are_lt_feasible() {
        let g = graph_from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 4), (0, 4)]);
        let w = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
        assert!(lt_weights_feasible(&g, &w));
    }

    #[test]
    fn full_weight_chain_always_activates() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let w = AdProbs::from_vec(vec![1.0; 3]);
        let spread = estimate_lt_spread(&g, &w, &[0], 200, 3);
        assert!((spread - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lt_two_parents_probability() {
        // v has two in-edges with weight 0.5 each. With one active parent,
        // P(v active) = 0.5 (threshold uniform). Seeds = {0}.
        let g = graph_from_edges(3, &[(0, 2), (1, 2)]);
        let w = AdProbs::from_vec(vec![0.5, 0.5]);
        let spread = estimate_lt_spread(&g, &w, &[0], 60_000, 7);
        assert!((spread - 1.5).abs() < 0.02, "spread {spread}");
        // Both parents active: v activates surely.
        let spread2 = estimate_lt_spread(&g, &w, &[0, 1], 5_000, 8);
        assert!((spread2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lt_rr_sets_estimate_singleton_spread() {
        // σ_LT({u}) = n · Pr[u ∈ RR]. Chain with weight 1.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let w = AdProbs::from_vec(vec![1.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(4);
        let theta = 30_000;
        let mut hits0 = 0;
        let mut out = Vec::new();
        for _ in 0..theta {
            sample_lt_rr_set(&g, &w, &mut rng, &mut out);
            if out.contains(&0) {
                hits0 += 1;
            }
        }
        let est = 3.0 * hits0 as f64 / theta as f64;
        assert!((est - 3.0).abs() < 0.05, "est {est}");
    }

    #[test]
    fn lt_rr_matches_forward_simulation() {
        let g = graph_from_edges(4, &[(0, 1), (2, 1), (1, 3), (0, 3)]);
        let w = AdProbs::from_vec(vec![0.4, 0.4, 0.3, 0.3]);
        assert!(lt_weights_feasible(&g, &w));
        let forward = estimate_lt_spread(&g, &w, &[0], 80_000, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let theta = 80_000;
        let mut hits = 0;
        let mut out = Vec::new();
        for _ in 0..theta {
            sample_lt_rr_set(&g, &w, &mut rng, &mut out);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let reverse = 4.0 * hits as f64 / theta as f64;
        assert!(
            (forward - reverse).abs() < 0.05,
            "forward {forward} vs reverse {reverse}"
        );
    }

    #[test]
    fn simulate_nodes_returns_active_set() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let w = AdProbs::from_vec(vec![1.0; 3]);
        let mut ws = LtWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut nodes = simulate_lt_cascade_nodes(&g, &w, &[1], &mut ws, &mut rng);
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let w = AdProbs::from_vec(vec![1.0, 1.0]);
        let mut ws = LtWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(simulate_lt_cascade(&g, &w, &[0], &mut ws, &mut rng), 3);
        }
    }

    #[test]
    fn normalize_waterfills_overfull_nodes_only() {
        // Node 2 has in-weights 0.9 + 0.9 = 1.8 (infeasible); node 1 has 0.3.
        let g = graph_from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let w = AdProbs::from_vec(vec![0.3, 0.9, 0.9]);
        assert!(!lt_weights_feasible(&g, &w));
        let norm = normalize_lt_weights(&g, &w);
        assert!(lt_weights_feasible(&g, &norm));
        // Untouched node keeps its weight bit-for-bit.
        assert_eq!(norm.get(0), 0.3);
        // Overfull node scaled to sum 1 with proportions preserved.
        assert!((norm.get(1) - 0.5).abs() < 1e-6);
        assert!((norm.get(2) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_is_identity_on_feasible_weights() {
        let g = graph_from_edges(3, &[(0, 2), (1, 2)]);
        let w = AdProbs::from_vec(vec![0.5, 0.5]);
        let norm = normalize_lt_weights(&g, &w);
        // Feasible input shares storage (no copy at all).
        assert!(norm.shares_storage(&w));
    }

    #[test]
    fn singleton_spreads_lt_match_chain_truth() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let w = AdProbs::from_vec(vec![1.0; 3]);
        let s = singleton_spreads_lt_mc(&g, &w, 50, 5);
        assert_eq!(s, vec![4.0, 3.0, 2.0, 1.0]);
    }
}
