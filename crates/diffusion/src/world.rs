//! Possible-world (live-edge) semantics.
//!
//! Under IC/TIC, a cascade is equivalent to first sampling a deterministic
//! subgraph ("possible world") where each edge is live independently with its
//! ad-specific probability, then taking forward reachability from the seeds.
//! This equivalence powers the RR-set estimators; here we expose it directly
//! plus an exponential-time exact spread oracle for tiny graphs used to
//! validate every estimator in the workspace.

use rm_graph::{CsrGraph, NodeId};

use crate::tic::AdProbs;

/// Number of nodes forward-reachable from `seeds` through live edges.
pub fn reachable_count(g: &CsrGraph, live: &[bool], seeds: &[NodeId]) -> usize {
    assert_eq!(live.len(), g.num_edges());
    let mut visited = vec![false; g.num_nodes()];
    let mut queue: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !visited[s as usize] {
            visited[s as usize] = true;
            queue.push(s);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        for (eid, v) in g.out_edges(u) {
            if live[eid as usize] && !visited[v as usize] {
                visited[v as usize] = true;
                queue.push(v);
            }
        }
    }
    queue.len()
}

/// **Exact** expected spread by enumerating all `2^m` possible worlds.
/// Usable only on tiny graphs (`m <= 20` or so); this is the ground-truth
/// oracle for estimator tests and the Figure 1 gadget.
///
/// # Panics
/// Panics if the graph has more than 24 edges.
pub fn exact_spread_enumeration(g: &CsrGraph, probs: &AdProbs, seeds: &[NodeId]) -> f64 {
    let m = g.num_edges();
    assert!(m <= 24, "exact enumeration is exponential; got {m} edges");
    if seeds.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut live = vec![false; m];
    for mask in 0u32..(1u32 << m) {
        let mut pw = 1.0f64;
        for (e, slot) in live.iter_mut().enumerate() {
            let p = probs.get(e as u32) as f64;
            if mask >> e & 1 == 1 {
                *slot = true;
                pw *= p;
            } else {
                *slot = false;
                pw *= 1.0 - p;
            }
            if pw == 0.0 {
                break;
            }
        }
        if pw > 0.0 {
            total += pw * reachable_count(g, &live, seeds) as f64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::estimate_spread;
    use rm_graph::builder::graph_from_edges;

    #[test]
    fn exact_matches_closed_form_on_chain() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let probs = AdProbs::from_vec(vec![0.5, 0.25]);
        let exact = exact_spread_enumeration(&g, &probs, &[0]);
        assert!((exact - (1.0 + 0.5 + 0.5 * 0.25)).abs() < 1e-12);
        // p = 0.5 on both arcs: σ({0}) = 1.75 and σ({0, 2}) = 2 + P(1
        // active) = 2.5, so node 2's marginal given {0} is 0.75.
        let probs = AdProbs::from_vec(vec![0.5, 0.5]);
        let s0 = exact_spread_enumeration(&g, &probs, &[0]);
        assert!((s0 - 1.75).abs() < 1e-12);
        assert!((exact_spread_enumeration(&g, &probs, &[0, 2]) - s0 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn exact_handles_converging_paths() {
        // Diamond: 0->1, 0->2, 1->3, 2->3, all p=0.5.
        // P(3 active) = 1 - (1 - 0.25)^2 = 0.4375.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let probs = AdProbs::from_vec(vec![0.5; 4]);
        let exact = exact_spread_enumeration(&g, &probs, &[0]);
        assert!((exact - (1.0 + 0.5 + 0.5 + 0.4375)).abs() < 1e-12);
    }

    #[test]
    fn mc_converges_to_exact() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let probs = AdProbs::from_vec(vec![0.4, 0.6, 0.5, 0.3, 0.7]);
        let exact = exact_spread_enumeration(&g, &probs, &[0]);
        let mc = estimate_spread(&g, &probs, &[0], 100_000, 99).spread;
        assert!((exact - mc).abs() < 0.03, "exact {exact}, MC {mc}");
    }

    #[test]
    fn world_reachability_is_monotone_in_liveness() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let none = vec![false; 3];
        let all = vec![true; 3];
        assert_eq!(reachable_count(&g, &none, &[0]), 1);
        assert_eq!(reachable_count(&g, &all, &[0]), 4);
    }
}
