//! Edge-list accumulation and cleanup ahead of CSR construction.

use crate::csr::{CsrGraph, NodeId};

/// Accumulates raw directed edges, then cleans them (drop self-loops, sort,
/// deduplicate) and freezes into a [`CsrGraph`].
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
    /// time in debug builds.
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
    pub fn build(mut self) -> CsrGraph {
        self.edges.retain(|&(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();
        CsrGraph::from_sorted_edges(self.n, &self.edges)
    }
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
