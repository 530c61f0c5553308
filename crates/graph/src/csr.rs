//! Compressed sparse row graph with dual (out + in) adjacency views.
//!
//! Both views share one canonical edge-id space: edge ids are assigned by the
//! position of the edge in the **out**-CSR (i.e. edges sorted by
//! `(source, target)`), and the in-CSR carries, for every in-slot, the
//! canonical id of the corresponding edge. Per-edge attribute arrays (e.g.
//! influence probabilities) are indexed by canonical edge id and therefore
//! usable from both directions.

/// Node identifier. `u32` keeps adjacency arrays compact; graphs up to
/// ~4.2 billion nodes are representable, far beyond this workspace's needs.
pub type NodeId = u32;

/// Canonical edge identifier (position in the out-CSR).
pub type EdgeId = u32;

/// The five raw CSR sections, in snapshot order: `(out_offsets,
/// out_targets, in_offsets, in_sources, in_eids)`.
pub type CsrParts<'a> = (
    &'a [u32],
    &'a [NodeId],
    &'a [u32],
    &'a [NodeId],
    &'a [EdgeId],
);

/// Immutable directed graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] (the generators and the text
/// reader build through it too), or reload a snapshot through
/// [`CsrGraph::from_parts`].
///
/// Equality is **representational**: two graphs compare equal iff every CSR
/// array matches element for element. That is exactly the bit-identity the
/// snapshot round trip (`crate::snapshot`) promises, and stricter than
/// structural isomorphism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets`.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` / `in_eids`.
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    /// Canonical edge id of each in-slot.
    in_eids: Vec<EdgeId>,
}

impl CsrGraph {
    /// Completes an out-view into a graph by deriving the in-view. Row `u`
    /// of `out_targets` is `out_offsets[u]..out_offsets[u + 1]`; each row
    /// must be strictly increasing (sorted, no duplicates) and free of `u`
    /// itself, with every target `< n`. [`crate::GraphBuilder`] produces
    /// exactly that, and this is the only constructor it and the text
    /// reader use.
    pub(crate) fn from_out_csr(n: usize, out_offsets: Vec<u32>, out_targets: Vec<NodeId>) -> Self {
        let m = out_targets.len();
        assert!(m < u32::MAX as usize, "edge count exceeds u32 range");
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(out_offsets[n] as usize, m);
        debug_assert!(
            (0..n).all(|u| {
                let row = &out_targets[out_offsets[u] as usize..out_offsets[u + 1] as usize];
                row.windows(2).all(|w| w[0] < w[1]) && !row.contains(&(u as NodeId))
            }),
            "rows must be sorted, deduplicated and self-loop free"
        );

        // Count in-degrees into `in_offsets[v]`, then turn them into
        // inclusive prefix sums, so `in_offsets[v]` is the end of `v`'s row.
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &out_targets {
            in_offsets[t as usize] += 1;
        }
        let mut end = 0u32;
        for o in &mut in_offsets[..n] {
            end += *o;
            *o = end;
        }
        in_offsets[n] = end;
        // Fill each in-row from its end while walking the edges in reverse
        // canonical order: every in-row comes out ascending by edge id (and
        // so by source), and each `in_offsets[v]` ends at the row's start.
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_eids = vec![0 as EdgeId; m];
        for u in (0..n).rev() {
            for eid in (out_offsets[u]..out_offsets[u + 1]).rev() {
                let slot = &mut in_offsets[out_targets[eid as usize] as usize];
                *slot -= 1;
                in_sources[*slot as usize] = u as NodeId;
                in_eids[*slot as usize] = eid;
            }
        }

        CsrGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_eids,
        }
    }

    /// Rebuilds a graph from raw CSR sections, validating every structural
    /// invariant the accessors rely on (offset monotonicity and bounds,
    /// endpoint ranges, in/out degree agreement, and that `in_eids` is a
    /// permutation of the canonical edge-id space consistent with
    /// `in_sources`). This is the trusted-data entry point of the binary
    /// snapshot reader (`crate::snapshot`): the checks are `O(n + m)` with
    /// small constants — a single pass over each section — so reload stays
    /// I/O-bound while corrupt input is still rejected rather than causing
    /// panics (or silent nonsense) later.
    pub fn from_parts(
        n: usize,
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
        in_eids: Vec<EdgeId>,
    ) -> Result<Self, String> {
        let m = out_targets.len();
        let fail = |msg: String| Err(msg);
        if out_offsets.len() != n + 1 || in_offsets.len() != n + 1 {
            return fail(format!(
                "offset sections sized {}/{}, want {}",
                out_offsets.len(),
                in_offsets.len(),
                n + 1
            ));
        }
        if in_sources.len() != m || in_eids.len() != m {
            return fail(format!(
                "in-sections sized {}/{}, want {m}",
                in_sources.len(),
                in_eids.len()
            ));
        }
        if m > u32::MAX as usize {
            return fail(format!("edge count {m} exceeds u32 range"));
        }
        for (name, offs) in [("out", &out_offsets), ("in", &in_offsets)] {
            if offs[0] != 0 || offs[n] as usize != m {
                return fail(format!("{name}_offsets must span 0..={m}"));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return fail(format!("{name}_offsets not monotone"));
            }
        }
        if out_targets.iter().any(|&v| v as usize >= n)
            || in_sources.iter().any(|&u| u as usize >= n)
        {
            return fail("endpoint out of range".to_string());
        }
        // `in_eids[slot]` must name an edge that really points at the slot's
        // owner, from the slot's recorded source. Checking via the out-CSR is
        // one comparison per edge; together with the per-node in-degree sums
        // implied by the offset checks above this pins the in-view to the
        // out-view exactly.
        let mut seen = vec![false; m];
        for v in 0..n {
            let (a, b) = (in_offsets[v] as usize, in_offsets[v + 1] as usize);
            for slot in a..b {
                let eid = in_eids[slot] as usize;
                if eid >= m || seen[eid] {
                    return fail(format!("in_eids is not a permutation at slot {slot}"));
                }
                seen[eid] = true;
                let src = in_sources[slot] as usize;
                let lo = out_offsets[src] as usize;
                let hi = out_offsets[src + 1] as usize;
                if !(lo..hi).contains(&eid) || out_targets[eid] as usize != v {
                    return fail(format!(
                        "in-slot {slot} (edge {eid}) disagrees with the out view"
                    ));
                }
            }
        }
        Ok(CsrGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_eids,
        })
    }

    /// The raw CSR sections, in snapshot order: `(out_offsets, out_targets,
    /// in_offsets, in_sources, in_eids)`. Consumed by the binary snapshot
    /// writer; offsets have length `n + 1`, the other three length `m`.
    pub fn parts(&self) -> CsrParts<'_> {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
            &self.in_eids,
        )
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Targets of the out-edges of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let a = self.out_offsets[u as usize] as usize;
        let b = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[a..b]
    }

    /// Sources of the in-edges of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let a = self.in_offsets[v as usize] as usize;
        let b = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[a..b]
    }

    /// Out-edges of `u` as `(canonical edge id, target)` pairs. The canonical
    /// id of the `k`-th out-edge of `u` is simply `out_offsets[u] + k`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let a = self.out_offsets[u as usize];
        let b = self.out_offsets[u as usize + 1];
        (a..b).map(move |eid| (eid, self.out_targets[eid as usize]))
    }

    /// In-edges of `v` as `(canonical edge id, source)` pairs.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let a = self.in_offsets[v as usize] as usize;
        let b = self.in_offsets[v as usize + 1] as usize;
        (a..b).map(move |i| (self.in_eids[i], self.in_sources[i]))
    }

    /// Raw in-slot range for `v` (used by the RR sampler's hot loop to avoid
    /// iterator overhead).
    #[inline]
    pub fn in_slot_range(&self, v: NodeId) -> (usize, usize) {
        (
            self.in_offsets[v as usize] as usize,
            self.in_offsets[v as usize + 1] as usize,
        )
    }

    /// In-slot arrays (sources and canonical edge ids), parallel to each other.
    #[inline]
    pub fn in_slots(&self) -> (&[NodeId], &[EdgeId]) {
        (&self.in_sources, &self.in_eids)
    }

    /// Iterates all edges as `(edge id, source, target)` in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| self.out_edges(u).map(move |(e, v)| (e, u, v)))
    }

    /// Approximate resident memory of the topology arrays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        4 * (self.out_offsets.len()
            + self.out_targets.len()
            + self.in_offsets.len()
            + self.in_sources.len()
            + self.in_eids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn adjacency_views_agree() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        // Every in-edge's canonical id must map back to the same (src, dst).
        for v in 0..4u32 {
            for (eid, src) in g.in_edges(v) {
                let found = g.out_edges(src).any(|(e2, t)| e2 == eid && t == v);
                assert!(
                    found,
                    "in-edge ({src}->{v}, id {eid}) missing from out view"
                );
            }
        }
    }

    #[test]
    fn edge_ids_are_canonical_positions() {
        let g = diamond();
        let ids: Vec<_> = g.edges().map(|(e, _, _)| e).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.in_neighbors(0), &[] as &[NodeId]);
    }

    #[test]
    fn isolated_nodes_between_connected_ones() {
        let g = graph_from_edges(5, &[(0, 4)]);
        assert_eq!(g.out_degree(0), 1);
        for u in 1..4 {
            assert_eq!(g.out_degree(u), 0);
            assert_eq!(g.in_degree(u), 0);
        }
        assert_eq!(g.in_degree(4), 1);
    }
}
