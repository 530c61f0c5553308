//! Erdős–Rényi random graphs: G(n, m) via rejection sampling of distinct
//! edges.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};

/// G(n, m): exactly up to `m` distinct directed edges sampled uniformly
/// (duplicates are rejected, so for extremely dense requests fewer edges can
/// be returned after the attempt budget is exhausted).
pub fn erdos_renyi_m<R: Rng + ?Sized>(n: usize, m: usize, directed: bool, rng: &mut R) -> CsrGraph {
    assert!(n >= 2 || m == 0, "need at least two nodes to place edges");
    let mut b = GraphBuilder::with_capacity(n, if directed { m } else { 2 * m });
    // Membership-only dedup: never iterated, so hash order cannot leak into
    // results. rm-lint: allow(nondet-iter)
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(20).max(1024);
    while seen.len() < m && attempts < max_attempts {
        attempts += 1;
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let key = if directed || u < v {
            ((u as u64) << 32) | v as u64
        } else {
            ((v as u64) << 32) | u as u64
        };
        if seen.insert(key) {
            if directed {
                b.add_edge(u, v);
            } else {
                b.add_undirected(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn gnm_exact_count() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = erdos_renyi_m(300, 900, true, &mut rng);
        assert_eq!(g.num_edges(), 900);
    }

    #[test]
    fn gnm_undirected_symmetric() {
        let mut rng = SmallRng::seed_from_u64(14);
        let g = erdos_renyi_m(100, 200, false, &mut rng);
        assert_eq!(g.num_edges(), 400);
        for (_, u, v) in g.edges() {
            assert!(g.out_neighbors(v).contains(&u));
        }
    }
}
