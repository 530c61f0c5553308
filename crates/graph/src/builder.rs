//! Edge-list accumulation and cleanup ahead of CSR construction.

use crate::csr::{CsrGraph, NodeId};

/// Accumulates raw directed edges, then cleans them (drop self-loops, sort,
/// deduplicate) and freezes into a [`CsrGraph`]. Every edges-to-CSR build
/// in the workspace runs through here: the generators, the synthetic
/// datasets and the text reader ([`crate::io`]) all use its counting sort
/// and `CsrGraph::from_out_csr`.
///
/// ```
/// use rm_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 1); // duplicate — dropped
/// b.add_edge(2, 2); // self-loop — dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// New builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// New builder with edge capacity pre-reserved.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `u -> v`. Out-of-range endpoints panic at build
    /// time.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Adds `u -> v` and `v -> u`.
    #[inline]
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
        self.edges.push((v, u));
    }

    /// Bulk-extend from an iterator of directed edges.
    pub fn extend(&mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.edges.extend(it);
    }

    /// Cleans (self-loop removal, sort, dedup) and freezes the graph.
    pub fn build(self) -> CsrGraph {
        let (offsets, targets) = out_rows(self.n, self.edges.iter().copied());
        drop(self.edges);
        CsrGraph::from_out_csr(self.n, offsets, targets)
    }
}

/// The cleaned out-view of `edges` on `n` nodes, as `(offsets, targets)`:
/// row `u` is `targets[offsets[u]..offsets[u + 1]]`, ascending, without
/// duplicates or `u` itself.
///
/// A counting sort in place of one global sort: count each source's
/// out-degree, scatter the targets by source, then sort and deduplicate each
/// row where it lies. Each row is short next to `m`, so the sorts are cheap
/// and the result equals sorting and deduplicating all pairs. `edges` is
/// walked twice (count, then scatter), so a caller can pass a mapping over a
/// buffer it owns rather than copy that buffer into `(NodeId, NodeId)`
/// pairs. The scratch beyond the returned vectors is O(1).
///
/// # Panics
/// If an endpoint is `>= n`, or `edges` holds `u32::MAX` or more non-loop
/// pairs.
pub(crate) fn out_rows<I>(n: usize, edges: I) -> (Vec<u32>, Vec<NodeId>)
where
    I: Iterator<Item = (NodeId, NodeId)> + Clone,
{
    let arcs = |edges: I| edges.filter(|&(u, v)| u != v);
    // Count out-degrees into `offsets[u]`, then turn them into inclusive
    // prefix sums, so `offsets[u]` is the end of `u`'s row.
    let mut offsets = vec![0u32; n + 1];
    let mut m = 0usize;
    for (u, v) in arcs(edges.clone()) {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        offsets[u as usize] += 1;
        m += 1;
    }
    assert!(m < u32::MAX as usize, "edge count exceeds u32 range");
    let mut end = 0u32;
    for o in &mut offsets[..n] {
        end += *o;
        *o = end;
    }
    offsets[n] = end;
    // Fill each row from its end; `offsets[u]` finishes at the row's start.
    let mut targets = vec![0 as NodeId; m];
    for (u, v) in arcs(edges) {
        let slot = &mut offsets[u as usize];
        *slot -= 1;
        targets[*slot as usize] = v;
    }
    // Sort each row and slide it down over the duplicates dropped before it.
    let mut kept = 0usize;
    for u in 0..n {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        targets[start..end].sort_unstable();
        offsets[u] = kept as u32;
        let row_start = kept;
        for i in start..end {
            let t = targets[i];
            if kept == row_start || targets[kept - 1] != t {
                targets[kept] = t;
                kept += 1;
            }
        }
    }
    offsets[n] = kept as u32;
    targets.truncate(kept);
    targets.shrink_to_fit();
    (offsets, targets)
}

/// Convenience: build a graph straight from a raw edge slice (cleanup applied).
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::EdgeId;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The cleanup the builder must equal: drop self-loops, sort and
    /// deduplicate all pairs, then lay out both views from the sorted list.
    fn oracle_graph(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let mut e: Vec<(NodeId, NodeId)> = edges.iter().copied().filter(|&(u, v)| u != v).collect();
        e.sort_unstable();
        e.dedup();
        let offsets = |keys: &mut dyn Iterator<Item = NodeId>| {
            let mut o = vec![0u32; n + 1];
            for k in keys {
                o[k as usize + 1] += 1;
            }
            for i in 0..n {
                o[i + 1] += o[i];
            }
            o
        };
        let out_offsets = offsets(&mut e.iter().map(|&(u, _)| u));
        let out_targets = e.iter().map(|&(_, v)| v).collect();
        let mut by_target: Vec<(NodeId, NodeId, EdgeId)> = e
            .iter()
            .enumerate()
            .map(|(eid, &(u, v))| (v, u, eid as EdgeId))
            .collect();
        by_target.sort_unstable();
        let in_offsets = offsets(&mut by_target.iter().map(|&(v, _, _)| v));
        let in_sources = by_target.iter().map(|&(_, u, _)| u).collect();
        let in_eids = by_target.iter().map(|&(_, _, eid)| eid).collect();
        CsrGraph::from_parts(n, out_offsets, out_targets, in_offsets, in_sources, in_eids).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting-sort build equals the sort + dedup + drop-self-loops
        /// oracle, array for array, on random pairs with hubs, repeats and
        /// isolated nodes (only the first `active` nodes get edges, and a
        /// few of those are skipped).
        #[test]
        fn build_matches_sort_dedup_oracle(
            seed in any::<u64>(),
            n in 0usize..=64,
            len in 0usize..400,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut edges = Vec::with_capacity(len);
            if n > 0 {
                let active = rng.random_range(1..=n);
                let hub = rng.random_range(0..active) as NodeId;
                let skipped = rng.random_range(0..active) as NodeId;
                let node = |rng: &mut SmallRng| loop {
                    let x = match rng.random_range(0..4u32) {
                        0 => hub,
                        _ => rng.random_range(0..active) as NodeId,
                    };
                    if x != skipped || active == 1 {
                        return x;
                    }
                };
                for _ in 0..len {
                    let e = (node(&mut rng), node(&mut rng));
                    edges.push(e);
                    if rng.random_range(0..8u32) == 0 {
                        edges.push(e);
                    }
                }
            }
            prop_assert_eq!(graph_from_edges(n, &edges), oracle_graph(n, &edges));
        }
    }

    #[test]
    fn cleanup_removes_loops_and_dups() {
        let g = graph_from_edges(3, &[(0, 1), (0, 1), (1, 1), (2, 0), (1, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[2]);
        assert_eq!(g.out_neighbors(2), &[0]);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let g = graph_from_edges(4, &[(3, 0), (1, 2), (0, 3), (2, 1)]);
        let listed: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(listed, vec![(0, 3), (1, 2), (2, 1), (3, 0)]);
    }
}
