//! Forward cascade simulation under ad-specific IC probabilities.
//!
//! When a node engages with an ad it gets one chance to influence each
//! out-neighbour, succeeding independently with the ad-specific edge
//! probability (Eq. 1). One simulation = one sampled cascade.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use rand::Rng;

use rm_graph::{CsrGraph, NodeId};

use crate::tic::AdProbs;

/// Reusable scratch space for cascade simulations. The visited array uses
/// epoch stamping so consecutive simulations cost O(activated), not O(n).
#[derive(Clone, Debug)]
pub struct CascadeWorkspace {
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl CascadeWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        CascadeWorkspace {
            mark: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: reset stamps and restart from epoch 1.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn visit(&mut self, v: NodeId) -> bool {
        let slot = &mut self.mark[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Runs one cascade from `seeds` and returns the number of activated nodes
/// (seeds included). Deterministic given the RNG state.
pub fn simulate_cascade<R: Rng + ?Sized>(
    g: &CsrGraph,
    probs: &AdProbs,
    seeds: &[NodeId],
    ws: &mut CascadeWorkspace,
    rng: &mut R,
) -> usize {
    ws.begin();
    for &s in seeds {
        if ws.visit(s) {
            ws.queue.push(s);
        }
    }
    let mut qi = 0;
    while qi < ws.queue.len() {
        let u = ws.queue[qi];
        qi += 1;
        let epoch = ws.epoch;
        for (eid, v) in g.out_edges(u) {
            if ws.mark[v as usize] == epoch {
                continue;
            }
            let p = probs.get(eid);
            if p > 0.0 && rng.random::<f32>() < p {
                ws.mark[v as usize] = epoch;
                ws.queue.push(v);
            }
        }
    }
    ws.queue.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use rm_graph::builder::graph_from_edges;

    #[test]
    fn deterministic_graph_full_activation() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let mut ws = CascadeWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(simulate_cascade(&g, &probs, &[0], &mut ws, &mut rng), 4);
        assert_eq!(simulate_cascade(&g, &probs, &[2], &mut ws, &mut rng), 2);
    }

    #[test]
    fn zero_probability_activates_only_seeds() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let probs = AdProbs::from_vec(vec![0.0; 3]);
        let mut ws = CascadeWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(simulate_cascade(&g, &probs, &[0, 2], &mut ws, &mut rng), 2);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let probs = AdProbs::from_vec(vec![0.0]);
        let mut ws = CascadeWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(
            simulate_cascade(&g, &probs, &[0, 0, 0], &mut ws, &mut rng),
            1
        );
    }

    #[test]
    fn activated_nodes_form_a_superset_of_seeds() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4)]);
        let probs = AdProbs::from_vec(vec![0.5; 4]);
        let mut ws = CascadeWorkspace::new(5);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..50 {
            let active = simulate_cascade(&g, &probs, &[0], &mut ws, &mut rng);
            assert!(
                (1..=5).contains(&active),
                "seed uncounted or overcounted: {active}"
            );
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let probs = AdProbs::from_vec(vec![1.0, 1.0]);
        let mut ws = CascadeWorkspace::new(3);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(simulate_cascade(&g, &probs, &[0], &mut ws, &mut rng), 3);
        }
    }
}
