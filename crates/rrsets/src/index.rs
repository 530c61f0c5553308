//! Coverage index over a growing collection of RR sets, plus the CELF-style
//! lazy-greedy heap used by the selection loops.
//!
//! The index supports exactly the operations TI-CARM / TI-CSRM (Alg. 2) need:
//!
//! * `coverage(v)` — mass of the *currently uncovered* sets containing `v`
//!   (their number, or their importance weight on a weighted index);
//!   `n · coverage(v) / θ` is the marginal-spread estimate of `v`;
//! * `cover_with(v)` — commit `v` as a seed: mark its sets covered and
//!   decrement other members' coverage (Alg. 2 line 14);
//! * `add_batch(..)` — grow the sample after a latent-size update; new sets
//!   already hit by an existing seed are recorded as covered on arrival,
//!   which is Algorithm 3's `UpdateEstimates` in incremental form;
//! * `compacted_memory_bytes()` — byte accounting behind the paper's
//!   Table 3: the live sample's compact footprint, counted without a
//!   rebuild.
//!
//! Everything is flat: sets arrive in an [`RrArena`] and are stored as CSR
//! arrays, and the node → set-ids inverted index is a byte-compressed CSR
//! rebuilt by counting sort — no per-set or per-node heap allocations, no
//! `Vec` headers. Counting sort emits each node's set ids in ascending
//! order, so the inverted lists store LEB128 varint *deltas* (~2 bytes per
//! entry instead of 4 on Table-3-style samples). Small growth batches
//! append to a pending tail instead of triggering a rebuild; rebuilds fire
//! once the tail (or the covered fraction) is worth folding in, and also
//! *compact*: sets covered by committed seeds are dropped from both
//! directions (their mass lives on in `covered()`), so resident
//! memory tracks the live sample instead of everything ever ingested.
//!
//! Each ingest writes every live entry once: a batch that triggers a
//! rebuild goes straight from the arena into the rebuilt exact-capacity
//! arrays, after the surviving live sets, and only a batch too small to
//! fold lands in the pending tail. Sets a committed seed already covers are
//! never written.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use rm_graph::NodeId;
use rm_submod::bitset::{count_and_not, union_into};

use crate::arena::RrArena;

/// Bytes the LEB128 varint encoding of `x` occupies.
#[inline]
fn varint_len(x: u32) -> u32 {
    (31 - (x | 1).leading_zeros()) / 7 + 1
}

/// Appends the LEB128 varint encoding of `x` at `out[*k..]`, advancing `*k`.
#[inline]
fn varint_write(out: &mut [u8], k: &mut usize, mut x: u32) {
    while x >= 0x80 {
        out[*k] = (x as u8 & 0x7f) | 0x80;
        *k += 1;
        x >>= 7;
    }
    out[*k] = x as u8;
    *k += 1;
}

/// Decodes the LEB128 varint at `bytes[*k..]`, advancing `*k`.
#[inline]
fn varint_read(bytes: &[u8], k: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*k];
        *k += 1;
        x |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Coverage index over RR sets for a single advertiser.
///
/// Only *live* (uncovered) sets occupy storage; `covered` flags sets covered
/// since the last `add_batch` rebuild. The θ denominator is the separate
/// `total_sets` counter, which keeps counting dropped sets.
///
/// Every query reports RR-set *mass* as `f64`: a set weighs 1 on a plain
/// index ([`Self::new`]) and its importance weight on a
/// [weighted](Self::new_weighted) one. On a plain index each mass is the
/// exact `f64` image of a set count (counts stay far below 2⁵³), so sums,
/// maxima and comparisons over masses equal their integer counterparts.
#[derive(Clone, Debug)]
pub struct RrCoverage {
    n: usize,
    /// Flat forward storage of live sets: set `sid` is
    /// `set_nodes[set_offsets[sid] .. set_offsets[sid + 1]]`.
    set_offsets: Vec<u32>,
    set_nodes: Vec<NodeId>,
    /// Inverted index, byte-compressed CSR: node `v`'s live set ids are the
    /// delta-decoded varints in `inv_bytes[inv_offsets[v] ..
    /// inv_offsets[v + 1]]` (first value absolute, the rest ascending
    /// deltas). Ids of sets covered since the last rebuild remain listed and
    /// are skipped on traversal.
    inv_offsets: Vec<u32>,
    inv_bytes: Vec<u8>,
    covered: Vec<bool>,
    /// Sets with id `>= indexed_sets` are *pending*: stored forward but not
    /// yet in the inverted CSR (`cover_with` scans them linearly). A rebuild
    /// folds them in once they outgrow an eighth of the indexed entries, so
    /// many tiny growth batches cost amortized `O(batch)` instead of a full
    /// rebuild each.
    indexed_sets: usize,
    /// `covered` flags that are true (all storage-resident covered sets).
    covered_live: usize,
    /// Current uncovered-set count per node.
    cov: Vec<u32>,
    /// Sets covered by committed seeds (numerator of the spread estimate).
    covered_sets: usize,
    /// Sets ever added (the θ denominator), including compacted-away ones.
    total_sets: usize,
    /// Per-set importance weights (pooled cross-advertiser samples,
    /// `crate::pool`); `None` on a plain index, whose memory accounting and
    /// code paths carry no weight storage at all.
    weights: Option<WeightColumn>,
}

/// The weight side of a [weighted](RrCoverage::new_weighted) index.
#[derive(Clone, Debug)]
struct WeightColumn {
    /// Importance weight per live set, parallel to `RrCoverage::covered`.
    per_set: Vec<f32>,
    /// Uncovered weight per node, parallel to `RrCoverage::cov`. Maintained
    /// incrementally and recomputed from scratch on every rebuild, so float
    /// drift from repeated subtraction is reset at each compaction.
    cov: Vec<f64>,
    /// Weight of the sets covered by committed seeds.
    covered: f64,
}

impl Default for RrCoverage {
    /// An index over zero nodes — `new(0)`, preserving the `set_offsets`
    /// sentinel every method relies on (a derived default would panic in
    /// `add_batch`).
    fn default() -> Self {
        RrCoverage::new(0)
    }
}

impl RrCoverage {
    /// Empty index for a graph with `n` nodes; every set weighs 1.
    pub fn new(n: usize) -> Self {
        RrCoverage {
            n,
            set_offsets: vec![0],
            set_nodes: Vec::new(),
            inv_offsets: vec![0; n + 1],
            inv_bytes: Vec::new(),
            covered: Vec::new(),
            indexed_sets: 0,
            covered_live: 0,
            cov: vec![0; n],
            covered_sets: 0,
            total_sets: 0,
            weights: None,
        }
    }

    /// Empty *weighted* index for a graph with `n` nodes: every ingested set
    /// carries an importance weight (default 1), and every mass query sums
    /// weights. Used by the shared RR pool's reweighted tenants
    /// (`crate::pool`).
    pub fn new_weighted(n: usize) -> Self {
        RrCoverage {
            weights: Some(WeightColumn {
                per_set: Vec::new(),
                cov: vec![0.0; n],
                covered: 0.0,
            }),
            ..RrCoverage::new(n)
        }
    }

    /// `true` iff this index carries per-set importance weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Total number of sets ever added (the θ denominator).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.total_sets
    }

    /// Mass of the sets covered by the committed seeds (the numerator of
    /// the spread estimate).
    #[inline]
    pub fn covered(&self) -> f64 {
        match &self.weights {
            None => self.covered_sets as f64,
            Some(w) => w.covered,
        }
    }

    /// Uncovered mass of the sets containing `v` (its marginal coverage). A
    /// weighted node whose sets are all covered reports exactly 0, whatever
    /// residue float drift left in its incremental weight sum.
    #[inline]
    pub fn coverage(&self, v: NodeId) -> f64 {
        let count = self.cov[v as usize];
        match &self.weights {
            None => f64::from(count),
            Some(_) if count == 0 => 0.0,
            Some(w) => w.cov[v as usize].max(0.0),
        }
    }

    /// Adds a batch of freshly sampled sets. `is_seed[u]` must be true for
    /// every already-committed seed of this advertiser: arriving sets hit by
    /// a seed are immediately counted as covered (Algorithm 3 semantics), so
    /// the seed set's spread estimate stays consistent with the enlarged
    /// sample. Returns how many of the new sets arrived covered.
    ///
    /// A batch whose live entries outgrow an eighth of the indexed entries —
    /// or that arrives once covered sets are worth reclaiming — triggers a
    /// compacting counting-sort rebuild (`O(n + live entries)`) and is
    /// written straight into the rebuilt arrays; a smaller one appends to
    /// the forward storage as a *pending* tail in amortized
    /// `O(batch entries)`, so a run of tiny growth batches stays linear
    /// overall. An all-false `is_seed` skips the per-set seed scan.
    pub fn add_batch(&mut self, sets: &RrArena, is_seed: &[bool]) -> usize {
        self.add_range_impl(sets, 0, sets.len(), is_seed, None)
    }

    /// [`Self::add_batch`] restricted to the arena slice `[lo, hi)`: ingests
    /// sets `lo..hi` (ids assigned in arena order) without copying them out.
    /// This is how pool tenants consume a *prefix* of a shared arena — each
    /// tenant's θ addresses `[0, θ)` of the pooled sample, and growth ingests
    /// only the delta range.
    pub fn add_range(&mut self, sets: &RrArena, lo: usize, hi: usize, is_seed: &[bool]) -> usize {
        self.add_range_impl(sets, lo, hi, is_seed, None)
    }

    /// [`Self::add_range`] with per-set importance weights (`weights[i]` is
    /// the weight of arena set `lo + i`). Requires a
    /// [weighted](Self::new_weighted) index.
    pub fn add_range_weighted(
        &mut self,
        sets: &RrArena,
        lo: usize,
        hi: usize,
        is_seed: &[bool],
        weights: &[f32],
    ) -> usize {
        // INVARIANT: API contract — a weight per ingested set, on a
        // weighted index only.
        assert!(
            self.is_weighted(),
            "add_range_weighted needs new_weighted()"
        );
        // INVARIANT: API contract (see above).
        assert_eq!(weights.len(), hi - lo, "one weight per ingested set");
        self.add_range_impl(sets, lo, hi, is_seed, Some(weights))
    }

    fn add_range_impl(
        &mut self,
        sets: &RrArena,
        lo: usize,
        hi: usize,
        is_seed: &[bool],
        weights: Option<&[f32]>,
    ) -> usize {
        // INVARIANT: API contract — the mask length defines the node space;
        // a short mask would silently mis-classify high node ids.
        assert_eq!(is_seed.len(), self.n, "seed mask must cover every node");
        // INVARIANT: API contract — the range must address the arena.
        assert!(lo <= hi && hi <= sets.len(), "range out of arena bounds");
        let mut batch = Batch::new(sets, lo, hi, weights);
        // Classify before writing anything. With no seed committed (every
        // initial ingest and arrival) every set is live and the arena's
        // offsets already give the sizes; otherwise one scan flags the sets
        // a seed covers on arrival.
        let mut arrived_covered = 0;
        if is_seed.contains(&true) {
            let mut live = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let set = sets.get(i);
                let hit = set.iter().any(|&u| is_seed[u as usize]);
                if hit {
                    // Covered on arrival: contributes to the covered mass
                    // and θ, occupies no storage.
                    self.covered_sets += 1;
                    if let Some(w) = &mut self.weights {
                        w.covered += f64::from(batch.weight(i));
                    }
                    arrived_covered += 1;
                    batch.count -= 1;
                    batch.entries -= set.len();
                }
                live.push(!hit);
            }
            batch.live = Some(live);
        }
        self.total_sets += hi - lo;

        let indexed_entries = self.set_offsets[self.indexed_sets] as usize;
        let pending_entries = self.set_nodes.len() - indexed_entries + batch.entries;
        let needs_fold = pending_entries * 8 >= indexed_entries + 1024;
        let needs_compaction = self.covered_live * 4 >= (self.covered.len() + batch.count).max(1);
        if needs_fold || needs_compaction {
            self.rebuild(&batch);
        } else {
            self.append(&batch);
        }
        arrived_covered
    }

    /// Appends the batch's live sets to the pending tail.
    fn append(&mut self, batch: &Batch) {
        // INVARIANT: entry counts are capped far below u32::MAX by the
        // sample-size valve; overflow indicates a sizing bug, not data.
        let to_u32 = |len: usize| u32::try_from(len).expect("coverage index exceeds u32 entries");
        batch.for_each_live(|set, weight| {
            for &u in set {
                self.cov[u as usize] += 1;
            }
            if let Some(w) = &mut self.weights {
                let wf = f64::from(weight);
                for &u in set {
                    w.cov[u as usize] += wf;
                }
                w.per_set.push(weight);
            }
            self.set_nodes.extend_from_slice(set);
            self.set_offsets.push(to_u32(self.set_nodes.len()));
            self.covered.push(false);
        });
    }

    /// Compacting counting-sort rebuild: writes the surviving live sets and
    /// then `batch`'s live sets, renumbered in that order, into
    /// exact-capacity forward arrays (the transient old+new overlap is the
    /// rebuild's high-water), then rebuilds the inverted CSR over every
    /// live set. Each batch entry is written once, straight from the arena.
    /// Counting sort visits set ids in ascending order per node, so each
    /// list is stored as LEB128 deltas (first id absolute, then the gaps).
    fn rebuild(&mut self, batch: &Batch) {
        let live_entries = self.cov.iter().map(|&c| c as usize).sum::<usize>() + batch.entries;
        let live_count = self.covered.len() - self.covered_live + batch.count;
        let mut nodes: Vec<NodeId> = Vec::with_capacity(live_entries);
        let mut offsets: Vec<u32> = Vec::with_capacity(live_count + 1);
        let mut per_set: Option<Vec<f32>> = self
            .weights
            .as_ref()
            .map(|_| Vec::with_capacity(live_count));
        offsets.push(0);
        // INVARIANT: same u32 sizing cap as `append`.
        let to_u32 = |len: usize| u32::try_from(len).expect("coverage index exceeds u32 entries");
        for sid in (0..self.covered.len()).filter(|&sid| !self.covered[sid]) {
            nodes.extend_from_slice(
                &self.set_nodes[self.set_offsets[sid] as usize..self.set_offsets[sid + 1] as usize],
            );
            offsets.push(to_u32(nodes.len()));
            if let (Some(out), Some(w)) = (&mut per_set, &self.weights) {
                out.push(w.per_set[sid]);
            }
        }
        batch.for_each_live(|set, weight| {
            for &u in set {
                self.cov[u as usize] += 1;
            }
            nodes.extend_from_slice(set);
            offsets.push(to_u32(nodes.len()));
            if let Some(out) = &mut per_set {
                out.push(weight);
            }
        });
        self.set_offsets = offsets;
        self.set_nodes = nodes;
        self.covered = vec![false; live_count];
        self.covered_live = 0;
        self.indexed_sets = live_count;

        // Sizing pass first: per-node encoded byte length, prefix-summed
        // into offsets. For weighted indexes the pass also recomputes the
        // per-node weight sums from scratch, resetting incremental float
        // drift at every rebuild.
        let mut byte_len = vec![0u32; self.n];
        let mut prev = vec![0u32; self.n];
        if let (Some(w), Some(per_set)) = (&mut self.weights, per_set) {
            w.per_set = per_set;
            w.cov.fill(0.0);
        }
        for sid in 0..live_count {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            for &u in &self.set_nodes[a..b] {
                byte_len[u as usize] += varint_len(sid as u32 - prev[u as usize]);
                prev[u as usize] = sid as u32;
            }
            if let Some(w) = &mut self.weights {
                let x = f64::from(w.per_set[sid]);
                for &u in &self.set_nodes[a..b] {
                    w.cov[u as usize] += x;
                }
            }
        }
        self.inv_offsets.clear();
        self.inv_offsets.reserve(self.n + 1);
        self.inv_offsets.push(0);
        let mut acc = 0u32;
        for &len in &byte_len {
            acc = acc
                // INVARIANT: same u32 sizing cap as add_batch.
                .checked_add(len)
                .expect("inverted index exceeds u32 bytes");
            self.inv_offsets.push(acc);
        }
        let mut cursor: Vec<usize> = self.inv_offsets[..self.n]
            .iter()
            .map(|&o| o as usize)
            .collect();
        prev.fill(0);
        self.inv_bytes = vec![0; acc as usize];
        for sid in 0..live_count {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            for &u in &self.set_nodes[a..b] {
                varint_write(
                    &mut self.inv_bytes,
                    &mut cursor[u as usize],
                    sid as u32 - prev[u as usize],
                );
                prev[u as usize] = sid as u32;
            }
        }
    }

    /// Commits `v` as a seed: covers all its uncovered sets, decrementing the
    /// coverage of every other member node. Returns the number of newly
    /// covered sets.
    pub fn cover_with(&mut self, v: NodeId) -> u32 {
        let mut k = self.inv_offsets[v as usize] as usize;
        let end = self.inv_offsets[v as usize + 1] as usize;
        let mut sid = 0u32;
        let mut newly = 0u32;
        while k < end {
            sid += varint_read(&self.inv_bytes, &mut k);
            if !self.covered[sid as usize] {
                self.cover_set(sid as usize);
                newly += 1;
            }
        }
        // Pending sets are not in the inverted CSR yet: scan the tail for
        // membership (bounded to an eighth of the index by the fold rule).
        for sid in self.indexed_sets..self.covered.len() {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            if !self.covered[sid] && self.set_nodes[a..b].contains(&v) {
                self.cover_set(sid);
                newly += 1;
            }
        }
        debug_assert_eq!(self.cov[v as usize], 0);
        self.covered_sets += newly as usize;
        self.covered_live += newly as usize;
        newly
    }

    /// Marks one live set covered, decrementing its members' coverage.
    fn cover_set(&mut self, sid: usize) {
        self.covered[sid] = true;
        let members =
            &self.set_nodes[self.set_offsets[sid] as usize..self.set_offsets[sid + 1] as usize];
        for &u in members {
            self.cov[u as usize] -= 1;
        }
        if let Some(w) = &mut self.weights {
            let x = f64::from(w.per_set[sid]);
            w.covered += x;
            for &u in members {
                w.cov[u as usize] -= x;
            }
        }
    }

    /// Largest [`Self::coverage`] over nodes not excluded by `skip`
    /// (linear scan; `F^max` in the latent-size rule, Eq. 10).
    pub fn max_coverage(&self, skip: impl Fn(NodeId) -> bool) -> f64 {
        let mut best = 0.0f64;
        for v in 0..self.n as NodeId {
            if !skip(v) {
                best = best.max(self.coverage(v));
            }
        }
        best
    }

    /// Forces a compacting rebuild and trims every backing allocation to
    /// its live size, so [`Self::memory_bytes`] afterwards reports exactly
    /// the live sample's footprint.
    ///
    /// Ingest is the only path that rebuilds on its own: sets covered by
    /// seeds committed *after* the last growth batch keep their forward and
    /// inverted storage, and the pending tail's `Vec`-doubling slack stays
    /// allocated. The engine reports Table 3 through
    /// [`Self::compacted_memory_bytes`], which counts this method's result
    /// without building it; `compact` remains as that count's test oracle.
    pub fn compact(&mut self) {
        self.rebuild(&Batch::new(&RrArena::new(), 0, 0, None));
        // The rebuild writes exact-capacity arrays; trimming is belt and
        // braces for the offset vectors it reuses.
        self.set_offsets.shrink_to_fit();
        self.set_nodes.shrink_to_fit();
        self.inv_offsets.shrink_to_fit();
        self.inv_bytes.shrink_to_fit();
        self.covered.shrink_to_fit();
        if let Some(w) = &mut self.weights {
            w.per_set.shrink_to_fit();
        }
    }

    /// Exactly what [`Self::memory_bytes`] would report after
    /// [`Self::compact`], counted in one read pass over the live sets
    /// without rebuilding anything: the live entries and set offsets, the
    /// varint lengths of the inverted lists the renumbered live sets would
    /// produce, and the per-node arrays, which compaction leaves alone.
    /// This is the index's Table-3 footprint.
    pub fn compacted_memory_bytes(&self) -> usize {
        // Live sets are renumbered `0..` in storage order; `prev[u]` is the
        // last new id listed for node `u`, as in the rebuild's sizing pass.
        let mut prev = vec![0u32; self.n];
        let (mut live, mut entries, mut inv_bytes) = (0u32, 0usize, 0usize);
        for sid in (0..self.covered.len()).filter(|&sid| !self.covered[sid]) {
            let set =
                &self.set_nodes[self.set_offsets[sid] as usize..self.set_offsets[sid + 1] as usize];
            for &u in set {
                inv_bytes += varint_len(live - prev[u as usize]) as usize;
                prev[u as usize] = live;
            }
            entries += set.len();
            live += 1;
        }
        let live = live as usize;
        4 * entries
            + 4 * (live + 1)
            + 4 * (self.n + 1)
            + inv_bytes
            + 4 * self.cov.capacity()
            + live
            + self
                .weights
                .as_ref()
                .map_or(0, |w| 4 * live + 8 * w.cov.capacity())
    }

    /// Resident bytes of the index: flattened sets, the inverted CSR, and
    /// per-node/per-set bookkeeping. Capacity-based — this is what the
    /// allocator actually holds right now, including covered sets and
    /// pending-tail slack that the next rebuild would drop. Table 3 reports
    /// the compact form instead ([`Self::compacted_memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        4 * self.set_nodes.capacity()
            + 4 * self.set_offsets.capacity()
            + 4 * self.inv_offsets.capacity()
            + self.inv_bytes.capacity()
            + 4 * self.cov.capacity()
            + self.covered.capacity()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| 4 * w.per_set.capacity() + 8 * w.cov.capacity())
    }

    /// Sum of the `k` largest [`Self::coverage`] masses over nodes not
    /// excluded by `skip`. By submodularity this bounds the coverage any
    /// size-`k` set can add on top of the committed seeds:
    /// `Λ(T ∪ S) ≤ Λ(S) + Σ_{v∈T} Λ(v | S) ≤ Λ(S) + top_k` — the `OPT` side
    /// of the online stopping rule (`opim`).
    pub fn top_k(&self, k: usize, skip: impl Fn(NodeId) -> bool) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let mut tops: Vec<f64> = (0..self.n as NodeId)
            .filter(|&v| !skip(v))
            .map(|v| self.coverage(v))
            .filter(|&c| c > 0.0)
            .collect();
        if tops.len() > k {
            tops.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            tops.truncate(k);
        }
        tops.into_iter().sum()
    }

    /// Greedy `k`-extension oracle for the online stopping rule: greedily
    /// covers `k` further nodes on a scratch clone (`self` is untouched) and
    /// reports the extension picks, the covered mass afterwards, and the
    /// post-extension [`Self::top_k`] over `residual_k` nodes (the tight
    /// submodularity bound on what any further `residual_k` picks could
    /// still add). Ties go to the lowest node id.
    pub fn greedy_extension(
        &self,
        k: usize,
        residual_k: usize,
        skip: impl Fn(NodeId) -> bool,
    ) -> GreedyExtension {
        let mut scratch = self.clone();
        let mut picks = Vec::with_capacity(k);
        for _ in 0..k {
            let mut best: Option<(NodeId, f64)> = None;
            for v in 0..scratch.n as NodeId {
                if skip(v) {
                    continue;
                }
                let c = scratch.coverage(v);
                if c > 0.0 && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((v, c));
                }
            }
            let Some((v, _)) = best else { break };
            scratch.cover_with(v);
            picks.push(v);
        }
        GreedyExtension {
            picks,
            covered: scratch.covered(),
            residual_top: scratch.top_k(residual_k, &skip),
        }
    }

    /// Sets bit `sid` in `bits` for every live set containing `v`: indexed
    /// sets via the inverted varint list, the pending tail by forward scan —
    /// the same two membership sources [`Self::cover_with`] consults.
    fn mark_member_sets(&self, v: NodeId, bits: &mut [u64]) {
        let mut k = self.inv_offsets[v as usize] as usize;
        let end = self.inv_offsets[v as usize + 1] as usize;
        let mut sid = 0u32;
        while k < end {
            sid += varint_read(&self.inv_bytes, &mut k);
            bits[sid as usize / 64] |= 1u64 << (sid % 64);
        }
        for sid in self.indexed_sets..self.covered.len() {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            if self.set_nodes[a..b].contains(&v) {
                bits[sid / 64] |= 1u64 << (sid % 64);
            }
        }
    }

    /// Covered *set counts* after committing `base` and then `ext` (`self`
    /// is untouched), for a unit-weight index such as the stopping rule's
    /// validation stream: returns
    /// `(covered(base ∪ ext), covered(base ∪ ext) − covered(base))` — the
    /// achieved total and the extension's share, the two validation-stream
    /// counts of the online stopping rule.
    ///
    /// Computed without cloning the index: committing a seed set covers
    /// exactly its member sets minus those already covered, and membership
    /// never changes during a commit sequence, so the sequential-cover
    /// counts equal `|⋃ members \ covered|` — three word bitmaps over set
    /// ids and two word-parallel difference counts
    /// ([`rm_submod::bitset::count_and_not`]), versus the full index clone
    /// (forward CSR + inverted CSR + per-node counts) this used to build per
    /// call on the stopping rule's validation path.
    pub fn coverage_split(&self, base: &[NodeId], ext: &[NodeId]) -> (usize, usize) {
        debug_assert!(
            !self.is_weighted(),
            "coverage_split counts unit-weight sets"
        );
        let nwords = self.covered.len().div_ceil(64);
        let mut covered_words = vec![0u64; nwords];
        for (sid, &c) in self.covered.iter().enumerate() {
            if c {
                covered_words[sid / 64] |= 1u64 << (sid % 64);
            }
        }
        let mut base_bits = vec![0u64; nwords];
        for &v in base {
            self.mark_member_sets(v, &mut base_bits);
        }
        let newly_base = count_and_not(&base_bits, &covered_words);
        let mut all_bits = vec![0u64; nwords];
        for &v in ext {
            self.mark_member_sets(v, &mut all_bits);
        }
        union_into(&mut all_bits, &base_bits);
        let newly_all = count_and_not(&all_bits, &covered_words);
        (self.covered_sets + newly_all, newly_all - newly_base)
    }
}

/// The sets one ingest stores: arena sets `lo..hi`, minus those a committed
/// seed covers on arrival.
struct Batch<'a> {
    sets: &'a RrArena,
    lo: usize,
    hi: usize,
    /// `live[i - lo]` is false iff a seed covers set `i` on arrival; `None`
    /// when every set is live.
    live: Option<Vec<bool>>,
    /// Per-set importance weights (`None`: every set weighs 1).
    weights: Option<&'a [f32]>,
    /// Live sets in the batch.
    count: usize,
    /// Members of the live sets.
    entries: usize,
}

impl<'a> Batch<'a> {
    /// Every set of `lo..hi` live.
    fn new(sets: &'a RrArena, lo: usize, hi: usize, weights: Option<&'a [f32]>) -> Self {
        Batch {
            sets,
            lo,
            hi,
            live: None,
            weights,
            count: hi - lo,
            entries: (sets.offsets[hi] - sets.offsets[lo]) as usize,
        }
    }

    /// Weight of arena set `i`.
    fn weight(&self, i: usize) -> f32 {
        self.weights.map_or(1.0, |ws| ws[i - self.lo])
    }

    /// Calls `f(set, weight)` on every live set, in arena order.
    fn for_each_live(&self, mut f: impl FnMut(&[NodeId], f32)) {
        for i in self.lo..self.hi {
            if self.live.as_ref().is_none_or(|live| live[i - self.lo]) {
                f(self.sets.get(i), self.weight(i));
            }
        }
    }
}

/// Result of [`RrCoverage::greedy_extension`].
#[derive(Clone, Debug)]
pub struct GreedyExtension {
    /// Nodes picked greedily, in pick order (may be shorter than `k` when
    /// coverage runs out).
    pub picks: Vec<NodeId>,
    /// Covered mass after the extension (committed + extension).
    pub covered: f64,
    /// Post-extension [`RrCoverage::top_k`] over `residual_k` nodes.
    pub residual_top: f64,
}

/// CELF-style lazy-greedy max-heap over `(key, node)` pairs.
///
/// Valid whenever keys only *decrease* over time (true for RR coverage and
/// for coverage/cost with fixed costs): a popped entry is re-validated
/// against the caller's current key and re-inserted if stale.
#[derive(Clone, Debug, Default)]
pub struct LazyGreedyHeap {
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    key: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl LazyGreedyHeap {
    /// Builds a heap from `(node, key)` pairs.
    pub fn build(entries: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let heap = entries
            .into_iter()
            .map(|(node, key)| HeapEntry { key, node })
            .collect();
        LazyGreedyHeap { heap }
    }

    /// Number of (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes an entry.
    pub fn push(&mut self, node: NodeId, key: f64) {
        self.heap.push(HeapEntry { key, node });
    }

    /// Pops the best *valid* entry: entries for which `skip` holds are
    /// dropped permanently; stale entries (current key < stored key) are
    /// re-inserted with their current key. Returns `(node, current_key)`.
    pub fn pop_valid(
        &mut self,
        mut current_key: impl FnMut(NodeId) -> f64,
        mut skip: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, f64)> {
        loop {
            match self.pop_step(&mut current_key, &mut skip) {
                PopStep::Valid(node, now) => return Some((node, now)),
                PopStep::Retry => continue,
                PopStep::Empty => return None,
            }
        }
    }

    /// One iteration of [`Self::pop_valid`]'s loop: pops the top entry and
    /// returns it if valid, drops or re-inserts it otherwise.
    fn pop_step(
        &mut self,
        current_key: &mut impl FnMut(NodeId) -> f64,
        skip: &mut impl FnMut(NodeId) -> bool,
    ) -> PopStep {
        let Some(top) = self.heap.pop() else {
            return PopStep::Empty;
        };
        if skip(top.node) {
            return PopStep::Retry;
        }
        let now = current_key(top.node);
        if is_fresh(now, top.key) {
            return PopStep::Valid(top.node, now);
        }
        // Stale: reinsert with the fresh key unless it is dead.
        if now > 0.0 {
            self.heap.push(HeapEntry {
                key: now,
                node: top.node,
            });
        }
        PopStep::Retry
    }

    /// True if `entries` are in the order a heap pops them: strictly
    /// descending key, ties to the lower node. A window's draws are in
    /// this order unless the 1e-12 slack re-keyed one below its successor.
    pub fn in_pop_order(entries: &[(NodeId, f64)]) -> bool {
        let entry = |&(node, key): &(NodeId, f64)| HeapEntry { key, node };
        entries
            .windows(2)
            .fold(true, |sorted, p| sorted & (entry(&p[0]) > entry(&p[1])))
    }

    /// Draws up to `w` valid entries into `out` (cleared first), in pop
    /// order, from the union of the heap and `held` — entries drawn from
    /// this heap earlier and held out of it since, each with the key it was
    /// drawn at (so no node is in both). Keys may only have decreased since
    /// `held` was drawn.
    ///
    /// `out`, and the heap left behind, are exactly what pushing `held`
    /// back and calling [`Self::pop_valid`] `w` times would produce — the
    /// same entries, keys and pop order, 1e-12 slack included. The held
    /// entries are re-validated in place instead: a held entry whose key
    /// dropped is re-keyed through a sorted side run rather than a heap
    /// round trip, and only the held entries the `w` draws do not reach go
    /// back into the heap. `held` is left empty.
    ///
    /// Returns the number of draws that reached the heap itself: one per
    /// valid entry the heap supplied, plus one if the union ran dry before
    /// `w` — what `w` calls to [`Self::pop_valid`] count when `held` is
    /// empty.
    pub fn pop_window(
        &mut self,
        held: &mut Vec<(NodeId, f64)>,
        w: usize,
        mut current_key: impl FnMut(NodeId) -> f64,
        mut skip: impl FnMut(NodeId) -> bool,
        out: &mut Vec<(NodeId, f64)>,
    ) -> usize {
        out.clear();
        let entry = |&(node, key): &(NodeId, f64)| HeapEntry { key, node };
        // The held run in heap order. Draw order already is heap order
        // unless the slack returned a key below its stored one.
        if !Self::in_pop_order(held) {
            held.sort_unstable_by_key(|e| std::cmp::Reverse(entry(e)));
        }
        // Current key of every held entry (`None`: skipped, dropped when
        // reached). A stale one is re-inserted at its current key once the
        // draws pass it: `requeued` holds those re-keyed entries in heap
        // order, tagged with their position in `held`. No pass check is
        // needed while merging — a re-keyed entry sits below its held
        // original, so it can outrank the held head only once the draws
        // have passed that original.
        let mut now = Vec::with_capacity(held.len());
        let mut requeued: Vec<(HeapEntry, usize)> = Vec::new();
        for (i, &(node, key)) in held.iter().enumerate() {
            let c = (!skip(node)).then(|| current_key(node));
            if let Some(c) = c.filter(|&c| !is_fresh(c, key) && c > 0.0) {
                requeued.push((HeapEntry { key: c, node }, i));
            }
            now.push(c);
        }
        requeued.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        let above = |e: HeapEntry, bound: Option<HeapEntry>| bound.is_none_or(|b| e > b);
        let (mut next, mut next_requeued, mut drawn) = (0, 0, 0);
        while out.len() < w {
            // The three heads; whichever side leads is drawn from in one
            // run, up to the larger of the other two heads.
            let top = self.heap.peek().copied();
            let held_head = held.get(next).map(entry);
            let requeued_head = requeued.get(next_requeued).map(|&(e, _)| e);
            if held_head.is_some_and(|h| above(h, top) && above(h, requeued_head)) {
                let bound = top.max(requeued_head);
                while let Some(e) = held.get(next).filter(|e| above(entry(e), bound)) {
                    let (node, key) = *e;
                    let c = now[next];
                    next += 1;
                    if let Some(c) = c.filter(|&c| is_fresh(c, key)) {
                        out.push((node, c));
                        if out.len() == w {
                            break;
                        }
                    }
                }
            } else if requeued_head.is_some_and(|r| above(r, top)) {
                // A re-keyed entry carries its current key: valid.
                let bound = top.max(held_head);
                while let Some(&(e, _)) = requeued.get(next_requeued).filter(|r| above(r.0, bound))
                {
                    next_requeued += 1;
                    out.push((e.node, e.key));
                    if out.len() == w {
                        break;
                    }
                }
            } else {
                match self.pop_step(&mut current_key, &mut skip) {
                    PopStep::Valid(node, now) => {
                        drawn += 1;
                        out.push((node, now));
                    }
                    PopStep::Retry => {}
                    PopStep::Empty => {
                        drawn += 1;
                        break;
                    }
                }
            }
        }
        // Everything the draws did not reach goes back as the heap would
        // hold it: unreached held entries at their stored keys, passed
        // re-keyed ones at their current keys.
        for &(e, i) in &requeued[next_requeued..] {
            if i < next {
                self.heap.push(e);
            }
        }
        for &(node, key) in &held[next..] {
            self.heap.push(HeapEntry { key, node });
        }
        held.clear();
        drawn
    }
}

/// Slack under which a popped entry's current key still counts as its
/// stored key.
const EPS: f64 = 1e-12;

/// True when an entry stored at `stored` is still valid at current key
/// `now`.
fn is_fresh(now: f64, stored: f64) -> bool {
    now + EPS >= stored
}

/// Outcome of one [`LazyGreedyHeap::pop_step`].
enum PopStep {
    Valid(NodeId, f64),
    Retry,
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index over hand-rolled sets: ids are assigned in insertion order.
    fn build(n: usize, sets: &[&[NodeId]]) -> RrCoverage {
        let mut idx = RrCoverage::new(n);
        idx.add_batch(&sets.iter().copied().collect(), &vec![false; n]);
        idx
    }

    #[test]
    fn coverage_counts() {
        let idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        assert_eq!(idx.coverage(0), 1.0);
        assert_eq!(idx.coverage(1), 3.0);
        assert_eq!(idx.coverage(2), 1.0);
        assert_eq!(idx.coverage(3), 1.0);
    }

    #[test]
    fn cover_with_updates_everyone() {
        let mut idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        let newly = idx.cover_with(1);
        assert_eq!(newly, 3);
        assert_eq!(idx.covered(), 3.0);
        assert_eq!(idx.coverage(0), 0.0);
        assert_eq!(idx.coverage(2), 0.0);
        assert_eq!(idx.coverage(3), 1.0);
        // Covering again yields nothing new.
        assert_eq!(idx.cover_with(1), 0);
    }

    #[test]
    fn arrival_covered_sets_counted_but_not_indexed() {
        let mut idx = build(3, &[&[0]]);
        idx.cover_with(0);
        let mut seeds = vec![false; 3];
        seeds[0] = true;
        // New batch: one set hits seed 0, one does not.
        let batch: RrArena = [&[0u32, 1][..], &[2][..]].into_iter().collect();
        let covered = idx.add_batch(&batch, &seeds);
        assert_eq!(covered, 1);
        assert_eq!(idx.num_sets(), 3);
        assert_eq!(idx.covered(), 2.0);
        // Node 1 gets no coverage from the seed-covered set.
        assert_eq!(idx.coverage(1), 0.0);
        assert_eq!(idx.coverage(2), 1.0);
    }

    #[test]
    fn greedy_extension_picks_hub_first() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let picked = idx.greedy_extension(2, 0, |_| false).picks;
        assert_eq!(picked, vec![0, 4]);
    }

    #[test]
    fn max_coverage_respects_skip() {
        let idx = build(3, &[&[0], &[0], &[1]]);
        assert_eq!(idx.max_coverage(|_| false), 2.0);
        assert_eq!(idx.max_coverage(|v| v == 0), 1.0);
    }

    #[test]
    fn memory_accounting_grows_monotonically() {
        let mut idx = RrCoverage::new(100);
        let initial = idx.memory_bytes();
        let mut last = initial;
        for round in 0..4u32 {
            let sets: RrArena = (0..50u32).map(|i| vec![i, (i + round) % 100]).collect();
            idx.add_batch(&sets, &[false; 100]);
            let now = idx.memory_bytes();
            // Capacity-based accounting is monotone: capacities never shrink
            // (a batch that fits in reserved slack reports the same bytes).
            assert!(
                now >= last,
                "round {round}: memory {now} shrank below {last}"
            );
            last = now;
        }
        assert!(last > initial, "adding sets must grow resident bytes");
        // Capacity-based accounting never under-reports the live entries.
        assert!(last >= 4 * idx.set_nodes.len() + idx.inv_bytes.len());
    }

    #[test]
    fn default_index_is_usable() {
        // Regression: a derived Default left `set_offsets` empty, panicking
        // in add_batch instead of no-op'ing like the seed implementation.
        let mut idx = RrCoverage::default();
        assert_eq!(idx.add_batch(&RrArena::new(), &[]), 0);
        assert_eq!(idx.num_sets(), 0);
    }

    #[test]
    fn compaction_reclaims_covered_sets() {
        // A hub covering most sets: the next add_batch rebuild must drop the
        // covered sets' storage, shrinking resident bytes below the
        // pre-cover level despite θ growing.
        let mut idx = RrCoverage::new(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        idx.add_batch(&big, &[false; 50]);
        let before = idx.memory_bytes();
        assert_eq!(idx.cover_with(0), 400);
        let mut seeds = [false; 50];
        seeds[0] = true;
        let small: RrArena = (0..10u32).map(|i| vec![1 + i % 49]).collect();
        idx.add_batch(&small, &seeds);
        assert_eq!(idx.num_sets(), 410, "θ keeps counting dropped sets");
        assert!(
            idx.memory_bytes() < before / 2,
            "compaction should reclaim covered sets: {} vs {before}",
            idx.memory_bytes()
        );
        assert_eq!(idx.covered(), 400.0);
        assert_eq!(idx.coverage(1), 1.0);
        // The rebuild writes exact-capacity arrays, so the capacity-based
        // accounting must equal the live footprint — no stale slack.
        assert_exact_accounting(&idx);
    }

    /// Asserts the capacity-based [`RrCoverage::memory_bytes`] equals the
    /// live footprint: every backing array trimmed to its length, the
    /// reported bytes the sum of those lengths.
    fn assert_exact_accounting(idx: &RrCoverage) {
        assert_eq!(idx.set_nodes.capacity(), idx.set_nodes.len());
        assert_eq!(idx.set_offsets.capacity(), idx.set_offsets.len());
        assert_eq!(idx.inv_offsets.capacity(), idx.inv_offsets.len());
        assert_eq!(idx.inv_bytes.capacity(), idx.inv_bytes.len());
        assert_eq!(idx.covered.capacity(), idx.covered.len());
        let weight_bytes = idx.weights.as_ref().map_or(0, |w| {
            assert_eq!(w.per_set.capacity(), w.per_set.len());
            4 * w.per_set.len() + 8 * w.cov.capacity()
        });
        let live = 4 * idx.set_nodes.len()
            + 4 * idx.set_offsets.len()
            + 4 * idx.inv_offsets.len()
            + idx.inv_bytes.len()
            + 4 * idx.cov.capacity()
            + idx.covered.len()
            + weight_bytes;
        assert_eq!(idx.memory_bytes(), live);
    }

    #[test]
    fn compact_reclaims_terminal_covers_without_an_add_batch() {
        // Covers committed after the last growth batch leave the
        // accounting stale (add_batch is the only rebuild path): the bytes
        // reported before compact() still include every covered set plus
        // the append tail's doubling slack. compact() must drop both and
        // leave the accounting exact — the Table 3 termination fix.
        let mut idx = RrCoverage::new(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        idx.add_batch(&big, &[false; 50]);
        let before = idx.memory_bytes();
        assert_eq!(idx.cover_with(0), 400);
        // No add_batch after the cover: the stale capacity still holds
        // every covered set.
        assert_eq!(idx.memory_bytes(), before);
        let counted = idx.compacted_memory_bytes();
        idx.compact();
        assert_eq!(idx.memory_bytes(), counted, "counted without a rebuild");
        assert!(
            idx.memory_bytes() < before / 2,
            "terminal compaction should reclaim covered sets: {} vs {before}",
            idx.memory_bytes()
        );
        assert_exact_accounting(&idx);
        // Queries survive compaction untouched.
        assert_eq!(idx.num_sets(), 400, "θ keeps counting dropped sets");
        assert_eq!(idx.covered(), 400.0);
        assert_eq!(idx.coverage(0), 0.0);
        assert_eq!(idx.coverage(1), 0.0);
        // And the index stays fully usable after compaction.
        let more: RrArena = (0..4u32).map(|i| vec![1 + i]).collect();
        idx.add_batch(&more, &{
            let mut s = [false; 50];
            s[0] = true;
            s
        });
        assert_eq!(idx.num_sets(), 404);
        assert_eq!(idx.coverage(1), 1.0);
        assert_eq!(idx.cover_with(1), 1);
    }

    #[test]
    fn top_k_takes_the_largest_masses() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        // cov = [3, 1, 1, 1, 1].
        assert_eq!(idx.top_k(1, |_| false), 3.0);
        assert_eq!(idx.top_k(2, |_| false), 4.0);
        assert_eq!(idx.top_k(10, |_| false), 7.0);
        assert_eq!(idx.top_k(0, |_| false), 0.0);
        // Skipping the hub removes its mass from the top.
        assert_eq!(idx.top_k(1, |v| v == 0), 1.0);
    }

    #[test]
    fn greedy_extension_reports_gain_and_residual() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let ext = idx.greedy_extension(1, 2, |_| false);
        assert_eq!(ext.picks, vec![0]);
        assert_eq!(ext.covered, 3.0);
        // After covering the hub only set {4} remains: residual top-2 = 1.
        assert_eq!(ext.residual_top, 1.0);
        // The original index is untouched.
        assert_eq!(idx.covered(), 0.0);
        assert_eq!(idx.coverage(0), 3.0);
        // Extending by everything covers everything, residual 0.
        let all = idx.greedy_extension(5, 5, |_| false);
        assert_eq!(all.covered, 4.0);
        assert_eq!(all.residual_top, 0.0);
    }

    #[test]
    fn coverage_split_matches_sequential_covers() {
        let mut idx = build(5, &[&[0, 1], &[0, 2], &[1, 3], &[4]]);
        idx.cover_with(4);
        let (total, gain) = idx.coverage_split(&[0], &[3]);
        // Untouched by the scratch computation.
        assert_eq!(idx.covered(), 1.0);
        idx.cover_with(0);
        let after_base = idx.covered();
        idx.cover_with(3);
        assert_eq!(total as f64, idx.covered());
        assert_eq!(total, 4);
        assert_eq!(gain as f64, idx.covered() - after_base);
    }

    #[test]
    fn coverage_split_matches_clone_reference_with_pending_tail() {
        // The bitmap rewrite must agree with the historical clone-and-cover
        // implementation on every (base, ext) pair — including sets that sit
        // in the un-indexed pending tail and seeds covered beforehand.
        let mut idx = build(
            6,
            &[&[0, 1], &[0, 2], &[1, 3], &[4], &[2, 5], &[3, 5], &[1]],
        );
        idx.cover_with(5);
        // Small batch: stays pending (no rebuild at this size).
        let tail: RrArena = [&[0u32, 4][..], &[3]].into_iter().collect();
        idx.add_batch(&tail, &[false; 6]);
        let nodes: Vec<NodeId> = (0..6).collect();
        for base_len in 0..3 {
            for ext_len in 0..3 {
                let base = &nodes[..base_len];
                let ext = &nodes[base_len..base_len + ext_len];
                let got = idx.coverage_split(base, ext);
                let mut scratch = idx.clone();
                for &v in base {
                    scratch.cover_with(v);
                }
                let after_base = scratch.covered() as usize;
                for &v in ext {
                    scratch.cover_with(v);
                }
                let after_ext = scratch.covered() as usize;
                let want = (after_ext, after_ext - after_base);
                assert_eq!(got, want, "split differs for base={base:?} ext={ext:?}");
            }
        }
        // Overlapping base/ext and duplicate members are union-semantics.
        assert_eq!(
            idx.coverage_split(&[0, 0, 1], &[1, 0]),
            idx.coverage_split(&[0, 1], &[])
        );
    }

    /// Weighted index over hand-rolled sets with one weight per set.
    fn build_weighted(n: usize, sets: &[&[NodeId]], weights: &[f32]) -> RrCoverage {
        let arena: RrArena = sets.iter().copied().collect();
        let mut idx = RrCoverage::new_weighted(n);
        idx.add_range_weighted(&arena, 0, arena.len(), &vec![false; n], weights);
        idx
    }

    #[test]
    fn unweighted_accessors_mirror_counts_exactly() {
        // A plain index and a unit-weight weighted one report the same
        // masses, bit for bit: the exact images of the set counts.
        let sets: &[&[NodeId]] = &[&[0, 1], &[1, 2], &[1], &[3]];
        let mut idx = build(4, sets);
        let mut unit = build_weighted(4, sets, &[1.0; 4]);
        assert!(!idx.is_weighted() && unit.is_weighted());
        for (v, want) in [(0u32, 1.0), (1, 3.0), (2, 1.0), (3, 1.0)] {
            assert_eq!(idx.coverage(v), want);
            assert_eq!(unit.coverage(v).to_bits(), idx.coverage(v).to_bits());
        }
        assert_eq!(idx.max_coverage(|_| false), 3.0);
        assert_eq!(idx.top_k(2, |_| false), 4.0);
        assert_eq!(idx.cover_with(1), unit.cover_with(1));
        assert_eq!(idx.covered(), 3.0);
        assert_eq!(unit.covered().to_bits(), idx.covered().to_bits());
        let ext = idx.greedy_extension(1, 1, |_| false);
        let unit_ext = unit.greedy_extension(1, 1, |_| false);
        assert_eq!(ext.picks, unit_ext.picks);
        assert_eq!((ext.covered, ext.residual_top), (4.0, 0.0));
        assert_eq!(unit_ext.covered.to_bits(), ext.covered.to_bits());
        assert_eq!(unit_ext.residual_top.to_bits(), ext.residual_top.to_bits());
    }

    #[test]
    fn weighted_coverage_counts_weights() {
        let idx = build_weighted(4, &[&[0, 1], &[1, 2], &[1], &[3]], &[0.5, 2.0, 1.0, 4.0]);
        assert!(idx.is_weighted());
        // Coverage sums importance weights, not set counts.
        assert_eq!(idx.coverage(0), 0.5);
        assert_eq!(idx.coverage(1), 3.5);
        assert_eq!(idx.coverage(3), 4.0);
        assert_eq!(idx.max_coverage(|_| false), 4.0);
        // Top-2 by weight: {4.0 (node 3), 3.5 (node 1)}.
        assert_eq!(idx.top_k(2, |_| false), 7.5);
    }

    #[test]
    fn weighted_cover_with_tracks_covered_mass() {
        let mut idx = build_weighted(4, &[&[0, 1], &[1, 2], &[1], &[3]], &[0.5, 2.0, 1.0, 4.0]);
        assert_eq!(idx.cover_with(1), 3);
        assert_eq!(idx.covered(), 3.5);
        assert_eq!(idx.coverage(0), 0.0);
        assert_eq!(idx.coverage(2), 0.0);
        assert_eq!(idx.coverage(3), 4.0);
    }

    #[test]
    fn weighted_greedy_follows_weights_not_counts() {
        // Node 0 sits in 3 sets of weight 0.1; node 4 in one set of weight
        // 5. An unweighted greedy would take node 0 first; the weighted
        // greedy must take node 4.
        let idx = build_weighted(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]], &[0.1, 0.1, 0.1, 5.0]);
        let ext = idx.greedy_extension(1, 1, |_| false);
        assert_eq!(ext.picks, vec![4]);
        assert_eq!(ext.covered, 5.0);
        // Residual after taking node 4: node 0's three 0.1-sets.
        assert!((ext.residual_top - 0.3).abs() < 1e-6);
    }

    #[test]
    fn weighted_arrival_covered_sets_add_weight() {
        let mut idx = build_weighted(3, &[&[0]], &[2.0]);
        idx.cover_with(0);
        let mut seeds = vec![false; 3];
        seeds[0] = true;
        let batch: RrArena = [&[0u32, 1][..], &[2][..]].into_iter().collect();
        let covered = idx.add_range_weighted(&batch, 0, 2, &seeds, &[3.0, 0.5]);
        assert_eq!(covered, 1);
        assert_eq!(idx.covered(), 5.0);
        assert_eq!(idx.coverage(1), 0.0);
        assert_eq!(idx.coverage(2), 0.5);
    }

    #[test]
    fn add_range_matches_add_batch_on_the_slice() {
        let arena: RrArena = [&[0u32, 1][..], &[1, 2], &[2], &[0, 3]]
            .into_iter()
            .collect();
        let mut by_range = RrCoverage::new(4);
        by_range.add_range(&arena, 1, 3, &[false; 4]);
        let sub: RrArena = [&[1u32, 2][..], &[2][..]].into_iter().collect();
        let mut by_batch = RrCoverage::new(4);
        by_batch.add_batch(&sub, &[false; 4]);
        assert_eq!(by_range.num_sets(), by_batch.num_sets());
        for v in 0..4u32 {
            assert_eq!(by_range.coverage(v), by_batch.coverage(v), "node {v}");
        }
        // Prefix growth: ingesting [0,1) then [1,3) equals [0,3) at once.
        let mut grown = RrCoverage::new(4);
        grown.add_range(&arena, 0, 1, &[false; 4]);
        grown.add_range(&arena, 1, 3, &[false; 4]);
        let mut whole = RrCoverage::new(4);
        whole.add_range(&arena, 0, 3, &[false; 4]);
        for v in 0..4u32 {
            assert_eq!(grown.coverage(v), whole.coverage(v), "node {v}");
        }
    }

    #[test]
    fn weighted_survives_rebuild_and_compact() {
        // Force compaction with a covered hub, then check the weighted view
        // is recomputed consistently and the accounting stays exact.
        let mut idx = RrCoverage::new_weighted(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        let w: Vec<f32> = (0..400).map(|i| 1.0 + (i % 3) as f32).collect();
        idx.add_range_weighted(&big, 0, 400, &[false; 50], &w);
        let hub_weight: f64 = w.iter().map(|&x| f64::from(x)).sum();
        assert!((idx.coverage(0) - hub_weight).abs() < 1e-9);
        assert_eq!(idx.cover_with(0), 400);
        assert!((idx.covered() - hub_weight).abs() < 1e-9);
        idx.compact();
        assert_exact_accounting(&idx);
        assert_eq!(idx.coverage(0), 0.0);
        assert!((idx.covered() - hub_weight).abs() < 1e-9);
        // Post-compaction growth keeps working on the weighted side.
        let more: RrArena = (0..4u32).map(|i| vec![1 + i]).collect();
        idx.add_range_weighted(&more, 0, 4, &[false; 50], &[0.25; 4]);
        assert_eq!(idx.coverage(1), 0.25);
    }

    #[test]
    fn lazy_heap_matches_eager_greedy() {
        // Lazily select 3 seeds by coverage and compare with the eager oracle.
        let sets: RrArena = [&[0u32, 1][..], &[0, 2], &[1, 2, 3], &[3], &[3, 4], &[4, 0]]
            .into_iter()
            .collect();
        let mut idx = RrCoverage::new(5);
        idx.add_batch(&sets, &[false; 5]);
        let eager = idx.greedy_extension(3, 0, |_| false).picks;

        let mut heap = LazyGreedyHeap::build((0..5u32).map(|v| (v, idx.coverage(v))));
        let mut lazy = Vec::new();
        let mut assigned = [false; 5];
        for _ in 0..3 {
            let idx_ref = &idx;
            let pick = heap
                .pop_valid(|v| idx_ref.coverage(v), |v| assigned[v as usize])
                .map(|(v, _)| v);
            if let Some(v) = pick {
                assigned[v as usize] = true;
                idx.cover_with(v);
                lazy.push(v);
            }
        }
        // Coverage gains must match the eager oracle gain-for-gain (ties may
        // reorder node ids, so compare covered totals).
        let mut idx2 = RrCoverage::new(5);
        idx2.add_batch(&sets, &[false; 5]);
        let mut eager_total = 0;
        for &v in &eager {
            eager_total += idx2.cover_with(v);
        }
        assert_eq!(idx.covered(), f64::from(eager_total));
        assert_eq!(lazy.len(), eager.len());
    }

    #[test]
    fn lazy_heap_skips_and_drains() {
        let mut heap = LazyGreedyHeap::build([(0u32, 5.0), (1, 4.0), (2, 3.0)]);
        // Skip node 0; key of 1 went stale (now 1.0), so 2 should win.
        let got = heap.pop_valid(
            |v| match v {
                1 => 1.0,
                2 => 3.0,
                _ => 0.0,
            },
            |v| v == 0,
        );
        assert_eq!(got, Some((2, 3.0)));
        let got2 = heap.pop_valid(|_| 1.0, |_| false);
        assert_eq!(got2, Some((1, 1.0)));
        assert!(heap.pop_valid(|_| 0.0, |_| false).is_none());
    }

    /// Heap contents as `(key bits, node)`, order-free.
    fn contents(heap: &LazyGreedyHeap) -> Vec<(u64, NodeId)> {
        let mut v: Vec<_> = heap
            .heap
            .iter()
            .map(|e| (e.key.to_bits(), e.node))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn pop_window_matches_push_back_and_pop() {
        // `pop_window` must reproduce "push the held entries back, then
        // pop_valid w times" exactly — the drawn entries, their order and
        // keys, and the heap left behind — including keys within the
        // 1e-12 slack of each other, stale and dead held entries, skipped
        // nodes and windows wider than the union.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9e37);
        let jitter = [0.0, 3e-13, -3e-13, 7e-13, -7e-13, 2e-12, -2e-12];
        for case in 0..4000 {
            let n = rng.random_range(1..24u32);
            let key = |rng: &mut SmallRng| {
                f64::from(rng.random_range(0..4u32)) + jitter[rng.random_range(0..jitter.len())]
            };
            let current: Vec<f64> = (0..n).map(|_| key(&mut rng).max(0.0)).collect();
            let skipped: Vec<bool> = (0..n).map(|_| rng.random_bool(0.15)).collect();
            let (mut in_heap, mut held) = (Vec::new(), Vec::new());
            for v in 0..n {
                // Stored keys are mostly upper bounds of the current key,
                // sometimes within the slack below it.
                let stored = current[v as usize]
                    + key(&mut rng).abs() * f64::from(rng.random_range(0..2u32))
                    + jitter[rng.random_range(0..jitter.len())];
                match rng.random_range(0..3u32) {
                    0 => in_heap.push((v, stored)),
                    1 => held.push((v, stored)),
                    _ => {}
                }
            }
            if rng.random_bool(0.5) {
                held.sort_unstable_by(|a, b| {
                    let e = |&(node, key): &(NodeId, f64)| HeapEntry { key, node };
                    e(b).cmp(&e(a))
                });
            }
            let w = rng.random_range(1..n as usize + 3);

            let mut naive = LazyGreedyHeap::build(in_heap.iter().chain(&held).copied());
            let mut want = Vec::new();
            let mut calls = 0;
            while want.len() < w {
                calls += 1;
                match naive.pop_valid(|v| current[v as usize], |v| skipped[v as usize]) {
                    Some(e) => want.push(e),
                    None => break,
                }
            }

            let mut heap = LazyGreedyHeap::build(in_heap.iter().copied());
            let mut got = Vec::new();
            let held_len = held.len();
            let drawn = heap.pop_window(
                &mut held,
                w,
                |v| current[v as usize],
                |v| skipped[v as usize],
                &mut got,
            );
            let bits = |v: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                v.iter().map(|&(u, k)| (u, k.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "case {case}: drawn entries differ");
            assert_eq!(
                contents(&heap),
                contents(&naive),
                "case {case}: heaps differ"
            );
            assert!(held.is_empty());
            if held_len == 0 {
                assert_eq!(drawn, calls, "case {case}: draw count");
            }
        }
    }

    #[test]
    fn pop_window_repairs_track_push_back_over_rounds() {
        // The engine's usage: a window is drawn, then repaired round after
        // round — after a node in it is assigned elsewhere, or after keys
        // drop (the owner's commit, which also retires the committed node).
        // The repaired window and heap must track the push-back-and-redraw
        // protocol exactly at every round, near-tied f64 keys included.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x51ed);
        for case in 0..300 {
            let n = rng.random_range(2..60u32);
            let w = rng.random_range(1..n as usize + 2);
            let mut current: Vec<f64> = (0..n)
                .map(|_| {
                    f64::from(rng.random_range(1..20u32))
                        + 1e-13 * f64::from(rng.random_range(0..9u32))
                })
                .collect();
            let mut assigned = vec![false; n as usize];
            let entries: Vec<(NodeId, f64)> = (0..n).map(|v| (v, current[v as usize])).collect();
            let (mut naive, mut heap) = (
                LazyGreedyHeap::build(entries.clone()),
                LazyGreedyHeap::build(entries),
            );
            let (mut naive_window, mut window) = (Vec::new(), Vec::new());
            for round in 0..40 {
                // Naive: push the window back, pop w afresh.
                for &(v, k) in &naive_window {
                    naive.push(v, k);
                }
                naive_window.clear();
                while naive_window.len() < w {
                    match naive.pop_valid(|v| current[v as usize], |v| assigned[v as usize]) {
                        Some(e) => naive_window.push(e),
                        None => break,
                    }
                }
                let mut held = std::mem::take(&mut window);
                heap.pop_window(
                    &mut held,
                    w,
                    |v| current[v as usize],
                    |v| assigned[v as usize],
                    &mut window,
                );
                let bits = |v: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                    v.iter().map(|&(u, k)| (u, k.to_bits())).collect()
                };
                assert_eq!(
                    bits(&window),
                    bits(&naive_window),
                    "case {case} round {round}: windows differ"
                );
                assert_eq!(
                    contents(&heap),
                    contents(&naive),
                    "case {case} round {round}: heaps differ"
                );
                if window.is_empty() {
                    break;
                }
                let pick = window[rng.random_range(0..window.len())].0;
                assigned[pick as usize] = true;
                if rng.random_bool(0.5) {
                    // The owner committed `pick`: it leaves the window, and
                    // keys drop — some by less than the 1e-12 slack.
                    window.retain(|&(u, _)| u != pick);
                    naive_window.retain(|&(u, _)| u != pick);
                    for c in current.iter_mut() {
                        match rng.random_range(0..4u32) {
                            0 => *c = (*c - f64::from(rng.random_range(1..4u32))).max(0.0),
                            1 => *c = (*c - 4e-13).max(0.0),
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}
