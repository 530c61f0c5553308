//! Flat, CSR-style storage for batches of RR sets.
//!
//! A sample of θ RR sets used to be a `Vec<Vec<NodeId>>` — one heap
//! allocation (plus a 24-byte header) per set, exactly the overhead
//! TIM-family systems avoid with flat storage. [`RrArena`] stores the same
//! data as two arrays: `nodes` concatenates every set's members, and
//! `offsets[i]..offsets[i + 1]` delimits set `i`. The sampler appends sets
//! in place (no per-set allocation), per-thread arenas splice in index
//! order, and the coverage index ingests the slices directly.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use rm_graph::NodeId;

/// A growable, flat collection of RR sets (CSR layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RrArena {
    /// `offsets[i]..offsets[i + 1]` indexes `nodes`; `len = sets + 1`.
    pub(crate) offsets: Vec<u64>,
    /// Concatenated member nodes of every set, target node first.
    pub(crate) nodes: Vec<NodeId>,
}

impl Default for RrArena {
    fn default() -> Self {
        RrArena::new()
    }
}

impl RrArena {
    /// An empty arena.
    pub fn new() -> Self {
        RrArena {
            offsets: vec![0],
            nodes: Vec::new(),
        }
    }

    /// An empty arena with room for `sets` sets totalling `nodes` members.
    pub fn with_capacity(sets: usize, nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        RrArena {
            offsets,
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Number of sets stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no sets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total members across all sets.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Set `i` as a node slice (target node first).
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The concatenated member nodes of every set (membership counting can
    /// iterate this directly instead of set by set).
    #[inline]
    pub fn node_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterates the sets in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// Appends one set (copied from a slice).
    pub fn push_set(&mut self, set: &[NodeId]) {
        self.nodes.extend_from_slice(set);
        self.offsets.push(self.nodes.len() as u64);
    }

    /// Appends `count` empty sets.
    pub fn push_empty_sets(&mut self, count: usize) {
        let end = self.nodes.len() as u64;
        self.offsets.extend(std::iter::repeat_n(end, count));
    }

    /// Splices `other`'s sets onto the end, preserving their order — how
    /// per-thread sampling arenas are merged in set-index order.
    pub fn append(&mut self, other: &RrArena) {
        let base = self.nodes.len() as u64;
        self.nodes.extend_from_slice(&other.nodes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// Ids (ascending) of the sets holding at least one node flagged in
    /// `flagged` — a graph delta's invalidation scan, with `flagged` the
    /// changed-edge targets. `flagged` must cover every stored node id.
    pub fn sets_touching(&self, flagged: &[bool]) -> Vec<usize> {
        self.iter()
            .enumerate()
            .filter(|(_, set)| set.iter().any(|&u| flagged[u as usize]))
            .map(|(i, _)| i)
            .collect()
    }

    /// Replaces the sets at `ids` (strictly ascending) with the sets of
    /// `repl` (one per id, in order), rebuilding the flat storage in one
    /// pass. This is the graph-delta repair primitive: invalidated sets are
    /// resampled on the changed graph and spliced back *in place*, so set
    /// ids — and with them the per-set RNG streams that produced every
    /// surviving set — stay stable across the repair.
    pub fn replace_sets(&mut self, ids: &[usize], repl: &RrArena) {
        // INVARIANT: API contract — one replacement per id, ids ascending
        // and in range; violations would silently mis-splice sets.
        assert_eq!(ids.len(), repl.len(), "one replacement set per id");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        if ids.is_empty() {
            return;
        }
        // INVARIANT: `ids` is non-empty (early return above), so `last()`
        // exists; it is the maximum id because ids ascend — part of the same
        // contract check as above.
        assert!(*ids.last().unwrap() < self.len(), "replace id out of range");
        let kept = self.nodes.len() - ids.iter().map(|&i| self.get(i).len()).sum::<usize>();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(kept + repl.total_nodes());
        let mut offsets: Vec<u64> = Vec::with_capacity(self.offsets.len());
        offsets.push(0);
        let mut r = 0usize;
        for sid in 0..self.len() {
            let set = if r < ids.len() && ids[r] == sid {
                r += 1;
                repl.get(r - 1)
            } else {
                self.get(sid)
            };
            nodes.extend_from_slice(set);
            offsets.push(nodes.len() as u64);
        }
        self.offsets = offsets;
        self.nodes = nodes;
    }

    /// Drops spare capacity, so the arena's resident bytes are its
    /// contents.
    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }

    /// Reserves room for `sets` more sets (exactly) and at least `nodes`
    /// more members.
    pub fn reserve(&mut self, sets: usize, nodes: usize) {
        self.offsets.reserve_exact(sets);
        self.nodes.reserve(nodes);
    }

    /// Ensures capacity for at least `total` member nodes overall.
    pub fn reserve_nodes(&mut self, total: usize) {
        self.nodes.reserve(total.saturating_sub(self.nodes.len()));
    }

    /// Resident bytes of the arena (capacity-based).
    pub fn memory_bytes(&self) -> usize {
        8 * self.offsets.capacity() + 4 * self.nodes.capacity()
    }
}

impl std::ops::Index<usize> for RrArena {
    type Output = [NodeId];

    #[inline]
    fn index(&self, i: usize) -> &[NodeId] {
        self.get(i)
    }
}

impl<S: AsRef<[NodeId]>> FromIterator<S> for RrArena {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut arena = RrArena::new();
        for set in iter {
            arena.push_set(set.as_ref());
        }
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut a = RrArena::new();
        assert!(a.is_empty());
        a.push_set(&[3, 1, 2]);
        a.push_set(&[]);
        a.push_set(&[7]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_nodes(), 4);
        assert_eq!(a.get(0), &[3, 1, 2]);
        assert_eq!(a.get(1), &[] as &[NodeId]);
        assert_eq!(&a[2], &[7]);
        let collected: Vec<&[NodeId]> = a.iter().collect();
        assert_eq!(collected, vec![&[3u32, 1, 2][..], &[], &[7]]);
    }

    #[test]
    fn append_preserves_order_and_equality() {
        let left: RrArena = [&[1u32, 2][..], &[3][..]].into_iter().collect();
        let right: RrArena = [&[4u32][..], &[5, 6][..]].into_iter().collect();
        let mut spliced = left.clone();
        spliced.append(&right);
        let expect: RrArena = [&[1u32, 2][..], &[3], &[4], &[5, 6]].into_iter().collect();
        assert_eq!(spliced, expect);
        assert_eq!(spliced.len(), 4);
    }

    #[test]
    fn replace_sets_splices_in_place() {
        let mut a: RrArena = [&[1u32, 2][..], &[3][..], &[4, 5, 6][..], &[7][..]]
            .into_iter()
            .collect();
        let repl: RrArena = [&[9u32][..], &[8, 8][..]].into_iter().collect();
        let mut flagged = [false; 10];
        flagged[3] = true;
        flagged[7] = true;
        assert_eq!(a.sets_touching(&flagged), vec![1, 3]);
        a.replace_sets(&[1, 3], &repl);
        let expect: RrArena = [&[1u32, 2][..], &[9], &[4, 5, 6], &[8, 8]]
            .into_iter()
            .collect();
        assert_eq!(a, expect);
        // Empty id list is a no-op.
        let before = a.clone();
        a.replace_sets(&[], &RrArena::new());
        assert_eq!(a, before);
        // Replacements may change set widths arbitrarily (grow and shrink).
        let repl2: RrArena = [&[][..]].into_iter().collect();
        a.replace_sets(&[0], &repl2);
        assert_eq!(a.get(0), &[] as &[NodeId]);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn empty_sets_and_memory() {
        let mut a = RrArena::with_capacity(8, 32);
        a.push_empty_sets(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_nodes(), 0);
        assert!(a.iter().all(<[NodeId]>::is_empty));
        assert!(a.memory_bytes() >= 8 * 9 + 4 * 32);
    }
}
