//! Random reverse-reachable set generation, generic over the diffusion
//! model: Independent Cascade keeps each incoming edge independently, Linear
//! Threshold walks one live in-edge per node (Kempe et al.'s live-edge
//! equivalence), and the topic-aware TIC model runs the IC walk on
//! probabilities mixed lazily from one shared per-topic table. All three
//! sample directly into an [`RrArena`] with no per-set heap allocation, and
//! every batch runs on one work-stealing block scheduler.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use std::sync::Arc;

use rand::Rng;

use rm_diffusion::{AdProbs, DiffusionModel, TicInSlots};
use rm_graph::{CsrGraph, NodeId};

use crate::arena::RrArena;

/// Reusable scratch for RR-set sampling (epoch-stamped visited array).
///
/// Epochs are a single byte on purpose: the visited array is hit once per
/// traversed in-edge in random order, so its footprint decides whether the
/// hot loop runs from L1/L2 or from further out. Wrap-around every 255
/// epochs costs one `fill(0)` — noise next to the traversal itself.
#[derive(Clone, Debug)]
pub struct RrWorkspace {
    mark: Vec<u8>,
    epoch: u8,
}

impl RrWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        RrWorkspace {
            mark: vec![0; n],
            epoch: 0,
        }
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
    }
}

/// Samples one random RR set into `out` and returns its **width** (number of
/// graph edges pointing into the set — TIM's `ω(R)`, consumed by KPT
/// estimation).
///
/// Procedure: pick a uniform random target node, then walk incoming edges in
/// BFS order, traversing each independently with its ad-specific probability.
/// `out` receives the reached nodes (target first).
pub fn sample_rr_set<R: Rng + ?Sized>(
    g: &CsrGraph,
    probs: &AdProbs,
    ws: &mut RrWorkspace,
    rng: &mut R,
    out: &mut Vec<NodeId>,
) -> u64 {
    out.clear();
    let n = g.num_nodes();
    debug_assert!(n > 0, "cannot sample from an empty graph");
    ws.begin();
    let root = rng.random_range(0..n) as NodeId;
    ws.mark[root as usize] = ws.epoch;
    out.push(root);

    let (in_sources, in_eids) = g.in_slots();
    let mut width = 0u64;
    let mut i = 0;
    while i < out.len() {
        let v = out[i];
        i += 1;
        let (lo, hi) = g.in_slot_range(v);
        width += (hi - lo) as u64;
        // `in_eids[slot]` is the canonical edge id for in-slot `slot`.
        for (&u, &eid) in in_sources[lo..hi].iter().zip(&in_eids[lo..hi]) {
            if ws.mark[u as usize] == ws.epoch {
                continue;
            }
            let p = probs.get(eid);
            if p > 0.0 && rng.random::<f32>() < p {
                ws.mark[u as usize] = ws.epoch;
                out.push(u);
            }
        }
    }
    width
}

/// One in-edge of the gathered traversal table: source node and an integer
/// acceptance threshold replacing the float probability (see [`threshold`]).
/// Fusing both into one 8-byte record gives the BFS hot loop a single
/// sequential stream instead of two parallel arrays plus an edge-id gather.
#[derive(Clone, Copy)]
struct InSlot {
    src: NodeId,
    thr: u32,
}

/// Integer acceptance threshold exactly replicating `rng.random::<f32>() < p`:
/// the shim's f32 draw is `(next_u32() >> 8) · 2⁻²⁴` with every value exactly
/// representable, so the float comparison is equivalent to
/// `(next_u32() >> 8) < ceil(p · 2²⁴)` — one shift and one integer compare.
#[inline]
pub(crate) fn threshold(p: f32) -> u32 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    (f64::from(p) * 16_777_216.0).ceil() as u32
}

/// Minimum in-degree for geometric skipping to beat per-edge coin flips
/// (a skip draw costs an `ln`, a per-edge draw is a shift-and-compare).
const SKIP_MIN_DEGREE: usize = 16;

/// Gathers edge probabilities (as thresholds) into in-slot order so the BFS
/// reads them sequentially instead of through the canonical-edge-id
/// indirection.
///
/// Also returns the per-node geometric-skip parameter `ln(1 − p)`: when every
/// in-edge of a node carries the same acceptance threshold (always true for
/// Weighted Cascade, where p = 1/indeg), the BFS can jump straight to the
/// next accepted in-edge with one RNG draw — `skip = ⌊ln(1−U)/ln(1−p)⌋` —
/// instead of flipping a coin per edge. `p` is reconstructed from the shared
/// threshold (`thr · 2⁻²⁴`), so skip acceptance matches the per-edge path's
/// effective probability exactly. Mixed-probability nodes get `NAN`
/// (disabling the skip path); `p = 0` gives `ln(1) = 0` (also disabled,
/// per-edge consumes no draws there anyway).
fn gather_slots(g: &CsrGraph, probs: &AdProbs) -> (Vec<InSlot>, Vec<f64>) {
    let (in_sources, in_eids) = g.in_slots();
    let slots: Vec<InSlot> = in_sources
        .iter()
        .zip(in_eids)
        .map(|(&src, &eid)| InSlot {
            src,
            thr: threshold(probs.get(eid)),
        })
        .collect();
    let skip_ln = gather_skip_ln(g, |s| slots[s].thr);
    (slots, skip_ln)
}

/// Per-node geometric-skip parameters (see [`gather_slots`]) over the
/// in-slot thresholds `thr(slot)`.
fn gather_skip_ln(g: &CsrGraph, thr: impl Fn(usize) -> u32) -> Vec<f64> {
    (0..g.num_nodes() as NodeId)
        .map(|v| {
            let (lo, hi) = g.in_slot_range(v);
            if hi - lo < SKIP_MIN_DEGREE {
                return f64::NAN;
            }
            let t = thr(lo);
            if (lo + 1..hi).all(|s| thr(s) == t) {
                (1.0 - f64::from(t) / 16_777_216.0).ln()
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Touches the lines a just-accepted node's expansion will need (its
/// `in_offsets` entry and first slot record), so the loads are in flight
/// while the BFS works through the frontier ahead of it. The expansion is a
/// chain of dependent random accesses — without this the loop stalls on
/// memory latency, not compute.
#[inline]
fn prewarm(g: &CsrGraph, slots: &[InSlot], v: NodeId) {
    let (lo, _) = g.in_slot_range(v);
    std::hint::black_box(slots.get(lo).map(|s| s.thr));
}

/// Counter-based SplitMix64 stream powering the batch hot loop. Xoshiro's
/// whole 256-bit state update chains between successive draws; here the
/// serial dependency is a single integer add (the mixing pipelines with the
/// surrounding traversal), which matters when the loop draws once per edge.
/// Bit-for-bit draw mapping matches the shim's (`>> 40` for the 24-bit coin,
/// `>> 11` for the f64), only the generator differs.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// 24-bit coin draw, the integer image of the shim's `random::<f32>()`.
    #[inline]
    fn next_coin(&mut self) -> u32 {
        (self.next_u64() >> 40) as u32
    }

    /// Uniform f64 in `[0, 1)`, mapped exactly like the shim's `f64` draw.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Appends the RR set of stream `set_seed` directly onto `arena` — no
/// per-set allocation; the BFS frontier *is* the arena tail, so nodes are
/// written exactly once. Returns the set's width.
fn sample_rr_set_into(
    g: &CsrGraph,
    slots: &[InSlot],
    skip_ln: &[f64],
    ws: &mut RrWorkspace,
    set_seed: u64,
    arena: &mut RrArena,
) -> u64 {
    let n = g.num_nodes();
    debug_assert!(n > 0, "cannot sample from an empty graph");
    let mut rng = SplitMix64::new(set_seed);
    ws.begin();
    let root = (rng.next_u64() % n as u64) as NodeId;
    ws.mark[root as usize] = ws.epoch;
    let start = arena.nodes.len();
    arena.nodes.push(root);
    prewarm(g, slots, root);

    let mut width = 0u64;
    let mut i = start;
    while i < arena.nodes.len() {
        let v = arena.nodes[i];
        i += 1;
        let (lo, hi) = g.in_slot_range(v);
        let m = hi - lo;
        width += m as u64;
        // Degree gate first: most members are low-degree, and checking `m`
        // (already loaded) spares their `skip_ln` lookup entirely.
        if m >= SKIP_MIN_DEGREE && skip_ln[v as usize] < 0.0 {
            let nl = skip_ln[v as usize];
            // Uniform in-edge probability: geometric jumps between accepted
            // edges, one draw per accept instead of one per edge. Accepted
            // edges to already-visited sources burn their draw harmlessly
            // (acceptance is independent of visitation), preserving the
            // per-edge path's distribution exactly. `p = 1` gives
            // `nl = −∞` ⇒ jump 0, accepting every edge. The cast saturates,
            // so a tiny `1 − U` cannot overflow `j`.
            let mut j = 0usize;
            loop {
                let u = rng.next_f64();
                j += ((1.0 - u).ln() / nl) as usize;
                if j >= m {
                    break;
                }
                let src = slots[lo + j].src;
                if ws.mark[src as usize] != ws.epoch {
                    ws.mark[src as usize] = ws.epoch;
                    arena.nodes.push(src);
                    prewarm(g, slots, src);
                }
                j += 1;
            }
        } else {
            for s in &slots[lo..hi] {
                if ws.mark[s.src as usize] == ws.epoch {
                    continue;
                }
                // `thr == 0` (p == 0) must not consume a draw, matching the
                // short-circuit in `sample_rr_set`.
                if s.thr > 0 && rng.next_coin() < s.thr {
                    ws.mark[s.src as usize] = ws.epoch;
                    arena.nodes.push(s.src);
                    prewarm(g, slots, s.src);
                }
            }
        }
    }
    arena.offsets.push(arena.nodes.len() as u64);
    width
}

/// A full 24-bit coin threshold: `next_coin() < COIN_FULL` always holds.
pub(crate) const COIN_FULL: u32 = 1 << 24;

/// Receives the live-edge decisions of a TIC walk
/// ([`sample_tic_rr_set_into`]); a closure `(slot, thr, accepted)` is one.
trait Trace {
    /// False only for [`NoTrace`]: the walk then skips the bookkeeping that
    /// only a trace reads.
    const ON: bool = true;
    fn decide(&mut self, slot: usize, thr: u32, accepted: bool);
}

impl<F: FnMut(usize, u32, bool)> Trace for F {
    #[inline]
    fn decide(&mut self, slot: usize, thr: u32, accepted: bool) {
        self(slot, thr, accepted)
    }
}

/// The trace of an untraced walk.
struct NoTrace;

impl Trace for NoTrace {
    const ON: bool = false;
    #[inline]
    fn decide(&mut self, _: usize, _: u32, _: bool) {}
}

/// Appends the TIC RR set of stream `set_seed` directly onto `arena` and
/// returns its width. Same BFS, draw pattern, and geometric-skip structure
/// as [`sample_rr_set_into`], but each in-slot's acceptance threshold is
/// computed **lazily** from the shared per-topic table and this ad's
/// mixture — no flat per-ad threshold array exists. Because the mixing
/// arithmetic is bit-identical to `TicModel::ad_probs` (see
/// `rm_diffusion::mix_row`) and zero-probability slots consume no draw
/// either way, a delta mixture on topic `z` produces arenas byte-identical
/// to flat IC over the model's column `z`.
///
/// `trace.decide(slot, thr, accepted)` fires once per in-slot whose
/// live/blocked outcome this set's trajectory determined, with `thr` the
/// slot's acceptance threshold under `gamma` — the raw material of the
/// shared pool's importance reweighting (`crate::pool`). Tracing never
/// perturbs the RNG stream, so traced and untraced walks (and pooled and
/// private arenas) are bit-identical.
///
/// Decision coverage:
/// * per-edge path: one decision per unvisited-source slot with a positive
///   threshold (`thr == 0` consumes no draw and is a deterministic failure —
///   the pool's support check guarantees every tenant agrees);
/// * geometric-skip path: each jump decides every slot from the current
///   position through the landing — gap slots failed, the landing accepted;
///   an overshoot (`j ≥ m`) means all remaining slots failed. Every slot of
///   a skip node mixes to the same threshold (that is what enables the
///   path), so `thr` is mixed once per node visit, and only when tracing.
///   Slots whose source is already visited still get their decision (their
///   draw is burnt either way), which is harmless: their outcome cannot
///   change the set, and their weight ratio has mean 1 under the reference.
#[allow(clippy::too_many_arguments)]
fn sample_tic_rr_set_into<T: Trace>(
    g: &CsrGraph,
    shared: &TicInSlots,
    gamma: &[f32],
    skip_ln: &[f64],
    ws: &mut RrWorkspace,
    set_seed: u64,
    arena: &mut RrArena,
    trace: &mut T,
) -> u64 {
    let n = g.num_nodes();
    debug_assert!(n > 0, "cannot sample from an empty graph");
    let mut rng = SplitMix64::new(set_seed);
    ws.begin();
    let root = (rng.next_u64() % n as u64) as NodeId;
    ws.mark[root as usize] = ws.epoch;
    let start = arena.nodes.len();
    arena.nodes.push(root);
    let src = shared.sources();

    let mut width = 0u64;
    let mut i = start;
    while i < arena.nodes.len() {
        let v = arena.nodes[i];
        i += 1;
        let (lo, hi) = g.in_slot_range(v);
        let m = hi - lo;
        width += m as u64;
        if m >= SKIP_MIN_DEGREE && skip_ln[v as usize] < 0.0 {
            // Uniform mixed probability on this node's in-edges: the IC
            // geometric-skip path applies unchanged (one draw per accepted
            // edge; accepted-but-visited edges burn their draw, preserving
            // the per-edge distribution).
            let nl = skip_ln[v as usize];
            let thr = if T::ON {
                threshold(shared.mixed_prob(lo, gamma))
            } else {
                0
            };
            let mut j = 0usize;
            loop {
                let u = rng.next_f64();
                let land = j + ((1.0 - u).ln() / nl) as usize;
                if T::ON {
                    for t in j..land.min(m) {
                        trace.decide(lo + t, thr, false);
                    }
                }
                j = land;
                if j >= m {
                    break;
                }
                trace.decide(lo + j, thr, true);
                let s = src[lo + j];
                if ws.mark[s as usize] != ws.epoch {
                    ws.mark[s as usize] = ws.epoch;
                    arena.nodes.push(s);
                }
                j += 1;
            }
        } else {
            for (j, &s) in src.iter().enumerate().take(hi).skip(lo) {
                if ws.mark[s as usize] == ws.epoch {
                    continue;
                }
                // Lazy Eq. 1 mix, then the exact integer coin of the flat
                // path. `thr == 0` must not consume a draw, matching
                // `sample_rr_set_into`.
                let thr = threshold(shared.mixed_prob(j, gamma));
                if thr > 0 {
                    let accepted = rng.next_coin() < thr;
                    trace.decide(j, thr, accepted);
                    if accepted {
                        ws.mark[s as usize] = ws.epoch;
                        arena.nodes.push(s);
                    }
                }
            }
        }
    }
    arena.offsets.push(arena.nodes.len() as u64);
    width
}

/// One in-slot record of the LT sampling tables: Walker-alias acceptance
/// threshold (24-bit integer coin, see [`threshold`]), fallback in-slot
/// (absolute index), and the slot's source node. 12 bytes keeps the reverse
/// walk on a single sequential-per-node stream.
#[derive(Clone, Copy)]
struct LtSlot {
    thr: u32,
    alias: u32,
    src: NodeId,
}

/// Builds the flat LT sampling tables: a Walker alias table per node over
/// its gathered in-weights (stored in the node's own in-slot range of
/// `slots`), plus the per-node 24-bit threshold for picking *any* in-edge
/// (the total in-weight; the residual mass is "stop").
///
/// Construction is O(n + m) total — the small/large work lists are reused
/// across nodes. Zero-weight in-edges are guaranteed unselectable: their
/// buckets carry `thr = 0` and alias to a positive-weight slot of the same
/// node, so even floating-point drift in the Vose pairing cannot leave a
/// self-aliased zero-weight bucket behind.
fn gather_lt_tables(g: &CsrGraph, weights: &AdProbs) -> (Vec<LtSlot>, Vec<u32>) {
    let (in_sources, in_eids) = g.in_slots();
    // Defaults (thr = FULL, alias = self) are what Vose leftovers keep.
    let mut slots: Vec<LtSlot> = in_sources
        .iter()
        .enumerate()
        .map(|(i, &src)| LtSlot {
            thr: COIN_FULL,
            alias: i as u32,
            src,
        })
        .collect();
    let mut pick_thr = vec![0u32; g.num_nodes()];
    let mut scaled: Vec<f64> = Vec::new();
    let mut small: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    for v in 0..g.num_nodes() as NodeId {
        let (lo, hi) = g.in_slot_range(v);
        let m = hi - lo;
        if m == 0 {
            continue;
        }
        let weight_of = |j: usize| f64::from(weights.get(in_eids[lo + j]));
        let total: f64 = (0..m).map(weight_of).sum();
        // The LT feasibility invariant is the caller's contract
        // (`DiffusionModel::lt` water-fills); silently clamping an
        // infeasible node would skew every edge's traversal probability
        // from w_e to w_e/total, so surface the violation in debug builds.
        debug_assert!(
            total <= 1.0 + 1e-6,
            "node {v}: LT in-weights sum to {total} > 1 — normalize first"
        );
        if total <= 0.0 {
            // pick_thr stays 0: the walk always stops here, the node's alias
            // slots are never consulted.
            continue;
        }
        pick_thr[v as usize] = (total.min(1.0) * 16_777_216.0).ceil() as u32;
        // Vose pairing over mean-1-scaled weights.
        scaled.clear();
        scaled.extend((0..m).map(|j| weight_of(j) * m as f64 / total));
        small.clear();
        large.clear();
        for (j, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(j);
            } else {
                large.push(j);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            slots[lo + s].thr = (scaled[s].clamp(0.0, 1.0) * 16_777_216.0).ceil() as u32;
            slots[lo + s].alias = (lo + l) as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Zero-weight guard (see the doc comment above). `total > 0` implies
        // some weight is positive, but stay infallible rather than unwrap:
        // an all-zero node simply keeps self-aliases, which are never hit
        // because pick_thr already sends the walk past it.
        let Some(first_pos) = (0..m).find(|&j| weight_of(j) > 0.0) else {
            continue;
        };
        for j in 0..m {
            if weight_of(j) <= 0.0 {
                slots[lo + j].thr = 0;
                if slots[lo + j].alias as usize == lo + j {
                    slots[lo + j].alias = (lo + first_pos) as u32;
                }
            }
        }
    }
    (slots, pick_thr)
}

/// Appends the LT RR set of stream `set_seed` directly onto `arena`: a
/// reverse walk from a uniform root, each node picking **at most one** live
/// in-edge via its alias table (Kempe et al.'s live-edge model for LT),
/// stopping on the no-edge residual or a revisit. No per-set allocation.
/// Returns the set's width (member in-degree sum, same convention as IC).
fn sample_lt_rr_set_into(
    g: &CsrGraph,
    slots: &[LtSlot],
    pick_thr: &[u32],
    ws: &mut RrWorkspace,
    set_seed: u64,
    arena: &mut RrArena,
) -> u64 {
    let n = g.num_nodes();
    debug_assert!(n > 0, "cannot sample from an empty graph");
    let mut rng = SplitMix64::new(set_seed);
    ws.begin();
    let root = (rng.next_u64() % n as u64) as NodeId;
    ws.mark[root as usize] = ws.epoch;
    arena.nodes.push(root);

    let mut width = 0u64;
    let mut cur = root;
    loop {
        let (lo, hi) = g.in_slot_range(cur);
        let m = hi - lo;
        width += m as u64;
        if m == 0 {
            break;
        }
        // Does `cur` pick an in-edge at all? (Total in-weight vs residual.)
        if rng.next_coin() >= pick_thr[cur as usize] {
            break;
        }
        // Walker alias draw among the node's in-slots: uniform bucket, then
        // accept its own outcome or take the alias.
        let bucket = lo + (rng.next_u64() % m as u64) as usize;
        let s = slots[bucket];
        let src = if rng.next_coin() < s.thr {
            s.src
        } else {
            slots[s.alias as usize].src
        };
        if ws.mark[src as usize] == ws.epoch {
            break; // walked into a cycle: the live path ends here
        }
        ws.mark[src as usize] = ws.epoch;
        arena.nodes.push(src);
        cur = src;
    }
    arena.offsets.push(arena.nodes.len() as u64);
    width
}

/// Prepared sampling tables of one diffusion model (see [`PreparedSampler`]).
enum Tables {
    /// IC: in-slot-ordered integer acceptance thresholds + geometric-skip
    /// parameters.
    Ic {
        slots: Vec<InSlot>,
        skip_ln: Vec<f64>,
    },
    /// LT: per-node Walker alias tables + pick-any-edge thresholds.
    Lt {
        slots: Vec<LtSlot>,
        pick_thr: Vec<u32>,
    },
    /// TIC: the **shared** in-slot per-topic table (one per `TicModel`,
    /// `Arc`-shared across every advertiser's sampler) plus this ad's
    /// mixture weights and per-node geometric-skip parameters — the only
    /// per-ad state.
    Tic {
        shared: Arc<TicInSlots>,
        gamma: Vec<f32>,
        skip_ln: Vec<f64>,
    },
}

impl Tables {
    /// Samples one RR set of stream `set_seed` onto the arena tail.
    #[inline]
    fn sample_one(
        &self,
        g: &CsrGraph,
        ws: &mut RrWorkspace,
        set_seed: u64,
        arena: &mut RrArena,
    ) -> u64 {
        match self {
            Tables::Ic { slots, skip_ln } => {
                sample_rr_set_into(g, slots, skip_ln, ws, set_seed, arena)
            }
            Tables::Lt { slots, pick_thr } => {
                sample_lt_rr_set_into(g, slots, pick_thr, ws, set_seed, arena)
            }
            Tables::Tic {
                shared,
                gamma,
                skip_ln,
            } => {
                sample_tic_rr_set_into(g, shared, gamma, skip_ln, ws, set_seed, arena, &mut NoTrace)
            }
        }
    }

    /// Number of in-slot records (must equal the graph's edge count).
    fn num_slots(&self) -> usize {
        match self {
            Tables::Ic { slots, .. } => slots.len(),
            Tables::Lt { slots, .. } => slots.len(),
            Tables::Tic { shared, .. } => shared.sources().len(),
        }
    }
}

/// The global set indices of one batch: a contiguous range (a new batch,
/// pool growth) or an explicit list (graph-delta repair).
#[derive(Clone, Copy, Debug)]
pub(crate) enum SetIds<'a> {
    /// The indices `lo..hi`.
    Range(u64, u64),
    /// The listed indices, in order.
    List(&'a [usize]),
}

impl<'a> SetIds<'a> {
    /// Number of sets in the batch.
    fn len(&self) -> usize {
        match *self {
            SetIds::Range(lo, hi) => (hi - lo) as usize,
            SetIds::List(ids) => ids.len(),
        }
    }

    /// The global indices of batch positions `lo..hi`.
    fn block(self, lo: usize, hi: usize) -> impl ExactSizeIterator<Item = u64> + 'a {
        (lo..hi).map(move |k| match self {
            SetIds::Range(first, _) => first + k as u64,
            SetIds::List(ids) => ids[k] as u64,
        })
    }

    /// Every global index of the batch, in order.
    pub(crate) fn iter(self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.block(0, self.len())
    }
}

/// Samples the global set indices `ids` (stream base `base`), in order, into
/// a fresh arena, with their widths.
fn sample_ids(
    g: &CsrGraph,
    tables: &Tables,
    base: u64,
    ids: impl ExactSizeIterator<Item = u64>,
    ws: &mut RrWorkspace,
) -> (RrArena, Vec<u64>) {
    let count = ids.len();
    let mut arena = RrArena::with_capacity(count, 2 * count);
    let mut widths = Vec::with_capacity(count);
    // Mean set size is unknown up front; after a pilot prefix, extrapolate
    // it so the node storage grows once instead of doubling repeatedly.
    let pilot = 512.min(count);
    for (k, idx) in ids.enumerate() {
        if k == pilot {
            let projected = arena.total_nodes() * count / pilot;
            arena.reserve_nodes(projected + projected / 8);
        }
        widths.push(tables.sample_one(g, ws, mix64(base ^ idx), &mut arena));
    }
    (arena, widths)
}

/// When [`steal_blocks`] hands a parallel call's finished blocks to its
/// consumer. Either way the consumer sees every block once, in block order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Handoff {
    /// As they finish: the worker that finishes the next block in order
    /// consumes it, and any finished blocks queued behind it, under a lock,
    /// so only the blocks finished ahead of the consumer are held at once.
    Streamed,
    /// On the calling thread, once every block is done. Each worker holds
    /// its own finished blocks until then.
    Joined,
}

/// The one block scheduler of every sampling call: runs `sample(lo, hi, ws)`
/// over the `block`-set blocks of `0..count` on `threads` workers and hands
/// each result to `consume` in block order, as `handoff` says.
///
/// Workers pull blocks off a shared atomic cursor (work-stealing — a
/// straggler core strands at most one block), and each owns one
/// [`RrWorkspace`] for its whole share: the visited array is O(n), so it is
/// per-worker state, not per-block (at n = 10⁷ a fresh workspace per block
/// would zero 10 MB every thousand sets). Per-set seeds depend only on the
/// global set index, never on which worker sampled it, so the consumed
/// sequence is bit-identical at any worker count. One worker runs the
/// blocks in order on the calling thread, consuming each as it finishes.
fn steal_blocks<T: Send>(
    n: usize,
    count: usize,
    block: usize,
    threads: usize,
    handoff: Handoff,
    sample: impl Fn(usize, usize, &mut RrWorkspace) -> T + Sync,
    mut consume: impl FnMut(T) + Send,
) {
    debug_assert!(block > 0, "blocks must hold at least one set");
    let nblocks = count.div_ceil(block);
    let bounds = |b: usize| (b * block, ((b + 1) * block).min(count));
    if threads <= 1 {
        let mut ws = RrWorkspace::new(n);
        for b in 0..nblocks {
            let (lo, hi) = bounds(b);
            consume(sample(lo, hi, &mut ws));
        }
        return;
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    // The next block to consume, the finished blocks queued behind it,
    // and the consumer.
    let splice = std::sync::Mutex::new((0usize, std::collections::BTreeMap::new(), consume));
    let mut held: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, sample, bounds, splice) = (&cursor, &sample, &bounds, &splice);
                scope.spawn(move || {
                    let mut ws = RrWorkspace::new(n);
                    let mut held = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        let (lo, hi) = bounds(b);
                        let part = sample(lo, hi, &mut ws);
                        if handoff == Handoff::Joined {
                            held.push((b, part));
                            continue;
                        }
                        // INVARIANT: poisoning means a sibling panicked
                        // while consuming; the batch is lost, so propagate.
                        let mut guard = splice.lock().expect("sampler splice lock poisoned");
                        let (next, ahead, consume) = &mut *guard;
                        ahead.insert(b, part);
                        while let Some(part) = ahead.remove(next) {
                            consume(part);
                            *next += 1;
                        }
                    }
                    held
                })
            })
            .collect();
        workers
            .into_iter()
            // INVARIANT: a sampler-worker panic leaves the batch
            // incomplete; propagating is the only sound response.
            .flat_map(|w| w.join().expect("sampler worker panicked"))
            .collect()
    });
    held.sort_unstable_by_key(|p| p.0);
    // INVARIANT: every worker has been joined, so no lock holder panicked
    // unnoticed.
    let (mut next, _, mut consume) = splice.into_inner().expect("sampler splice lock poisoned");
    for (b, part) in held {
        debug_assert_eq!(b, next, "blocks must be consumed in order");
        consume(part);
        next += 1;
    }
    debug_assert_eq!(
        next, nblocks,
        "steal cursor must hand out each block exactly once"
    );
}

/// One work-stealing block of a traced batch
/// ([`PreparedSampler::sample_traced`]): the block's sets and, set-major,
/// `columns` importance weights per set.
pub(crate) struct TracedBlock {
    pub(crate) arena: RrArena,
    pub(crate) weights: Vec<f32>,
}

// The canonical seed-derivation helpers (`mix64`, `stream_seed`) live in
// `rm_graph::seed` so every crate can reach them; re-exported here because
// `rm_rrsets::stream_seed` is the historical public path.
pub use rm_graph::seed::{mix64, stream_seed};

/// Sets per work-stealing block. Large enough that the atomic cursor bump
/// and the splice lock (once each per block) are noise next to sampling a
/// thousand sets, small enough that a straggler worker holds at most one
/// block's worth of tail latency.
const STEAL_BLOCK: usize = 1024;

/// Sampling tables prepared once per `(graph, model)` pair: IC gathers
/// in-slot-ordered integer acceptance thresholds plus per-node
/// geometric-skip parameters; LT gathers per-node Walker alias tables; TIC
/// keeps the model's shared per-topic table plus this ad's mixture and
/// per-node geometric-skip parameters.
/// Callers that grow a sample incrementally — the engine adds batches every
/// latent-size update — should prepare once and reuse, instead of paying
/// the `O(n + m)` gather per batch.
pub struct PreparedSampler {
    tables: Tables,
    thread_cap: usize,
    thread_count: Option<usize>,
}

impl PreparedSampler {
    /// Gathers Independent-Cascade sampling tables for `probs` on `g`.
    pub fn new(g: &CsrGraph, probs: &AdProbs) -> Self {
        let (slots, skip_ln) = gather_slots(g, probs);
        Self::with_tables(Tables::Ic { slots, skip_ln })
    }

    /// Gathers the sampling tables for an arbitrary diffusion model on `g`.
    /// LT models must carry feasible in-weights (construct them via
    /// [`DiffusionModel::lt`], which water-fills).
    pub fn for_model(g: &CsrGraph, model: &DiffusionModel) -> Self {
        match model {
            DiffusionModel::IndependentCascade(probs) => Self::new(g, probs),
            DiffusionModel::LinearThreshold(weights) => {
                let (slots, pick_thr) = gather_lt_tables(g, weights);
                Self::with_tables(Tables::Lt { slots, pick_thr })
            }
            DiffusionModel::Tic { tic, gamma } => {
                // All h per-ad samplers of one instance share the same
                // in-slot table (cached inside the `TicModel`); only the
                // L-float mixture and the O(n) skip parameters are per-ad.
                // A node's skip parameter is `NAN` unless every in-edge
                // mixes to the same threshold (always true for single-topic
                // Weighted Cascade, and common under `TicModel::topical`,
                // where a node's in-edges share the WC base).
                let shared = tic.in_slot_view(g);
                let gamma = gamma.weights().to_vec();
                let skip_ln = gather_skip_ln(g, |s| threshold(shared.mixed_prob(s, &gamma)));
                Self::with_tables(Tables::Tic {
                    shared,
                    gamma,
                    skip_ln,
                })
            }
        }
    }

    /// A sampler over `tables` with no thread cap or forced count.
    fn with_tables(tables: Tables) -> Self {
        PreparedSampler {
            tables,
            thread_cap: usize::MAX,
            thread_count: None,
        }
    }

    /// Caps the worker threads [`Self::sample_batch`] may spawn. Callers
    /// already running inside their own thread pool (the engine's parallel
    /// per-ad initialization) set this to their per-worker share so the two
    /// fan-out layers cannot multiply into oversubscription.
    pub fn set_thread_cap(&mut self, cap: usize) {
        self.thread_cap = cap.max(1);
    }

    /// Forces an **exact** worker count for [`Self::sample_batch`],
    /// overriding both hardware detection and [`Self::set_thread_cap`].
    /// Arenas are bit-identical at any setting (per-set seeds depend only on
    /// the global set index), so this is purely a performance/measurement
    /// knob — it lets thread-count sweeps exercise the sharded sampling path
    /// even when `available_parallelism` reports fewer cores than the sweep
    /// point asks for.
    pub fn set_thread_count(&mut self, threads: usize) {
        self.thread_count = Some(threads.max(1));
    }

    /// Resident bytes of the prepared tables (capacity-based). For TIC this
    /// counts only the **per-ad** state (mixture + skip parameters); the
    /// shared in-slot table is owned by the `TicModel` and must be accounted
    /// once per instance (see [`Self::shared_table_bytes`]), not once per ad
    /// — that independence from `h` is the point of the lazy-mixing design.
    pub fn memory_bytes(&self) -> usize {
        match &self.tables {
            Tables::Ic { slots, skip_ln } => {
                std::mem::size_of::<InSlot>() * slots.capacity() + 8 * skip_ln.capacity()
            }
            Tables::Lt { slots, pick_thr } => {
                std::mem::size_of::<LtSlot>() * slots.capacity() + 4 * pick_thr.capacity()
            }
            Tables::Tic { gamma, skip_ln, .. } => 4 * gamma.capacity() + 8 * skip_ln.capacity(),
        }
    }

    /// Resident bytes of the table shared across samplers, if any: the TIC
    /// per-topic in-slot table. IC/LT samplers own all their storage and
    /// return 0. Memory accounting should sum [`Self::memory_bytes`] per ad
    /// plus this once per distinct shared table.
    pub fn shared_table_bytes(&self) -> usize {
        match &self.tables {
            Tables::Tic { shared, .. } => shared.memory_bytes(),
            _ => 0,
        }
    }

    /// Samples `count` RR sets in parallel over `g` — which must be the graph
    /// this sampler was prepared on. Returns `(sets, widths)` with the sets
    /// stored flat in an [`RrArena`].
    ///
    /// Set `j` of a call with base seed `s` is always generated from the RNG
    /// stream [`stream_seed`]`(s, j)`, so the result is bit-identical at
    /// **any** thread count, forced or detected. `first_index` offsets `j`,
    /// letting incremental growth of a sample continue the same logical
    /// sequence.
    pub fn sample_batch(
        &self,
        g: &CsrGraph,
        count: usize,
        seed: u64,
        first_index: u64,
    ) -> (RrArena, Vec<u64>) {
        let ids = SetIds::Range(first_index, first_index + count as u64);
        self.sample_sets(g, seed, ids)
    }

    /// Samples the RR sets at the global set indices `ids` (in the given
    /// order) of the stream with base seed `seed`: set `ids[k]` is
    /// bit-identical to what `sample_batch(g, 1, seed, ids[k])` returns,
    /// because per-set seeds depend only on the global index. This is the
    /// graph-delta repair entry point: one call resamples an arbitrary
    /// sparse list on the same blocks as [`Self::sample_batch`].
    pub(crate) fn sample_indices(&self, g: &CsrGraph, seed: u64, ids: &[usize]) -> RrArena {
        self.sample_sets(g, seed, SetIds::List(ids)).0
    }

    /// The batch body of [`Self::sample_batch`] and [`Self::sample_indices`]:
    /// samples the sets `ids` of stream `seed` into one arena, with their
    /// widths. One worker samples the whole call as a single block, straight
    /// into the returned arena. Several workers sample
    /// [`STEAL_BLOCK`]-set blocks into arenas of their own, and the calling
    /// thread splices them once every block is done: on `serve-churn`, a
    /// [`Handoff::Streamed`] hand-off read about a fifth higher peak RSS,
    /// even with a consumer that only collected the blocks.
    fn sample_sets(&self, g: &CsrGraph, seed: u64, ids: SetIds<'_>) -> (RrArena, Vec<u64>) {
        debug_assert_eq!(
            self.tables.num_slots(),
            g.num_edges(),
            "sampler prepared on a different graph"
        );
        let count = ids.len();
        if count == 0 || g.num_nodes() == 0 {
            let mut arena = RrArena::new();
            arena.push_empty_sets(count);
            return (arena, vec![0u64; count]);
        }
        let base = mix64(seed);
        let threads = self.worker_count(count);
        let block = if threads <= 1 { count } else { STEAL_BLOCK };
        let mut parts = Vec::with_capacity(count.div_ceil(block));
        steal_blocks(
            g.num_nodes(),
            count,
            block,
            threads,
            Handoff::Joined,
            |lo, hi, ws| sample_ids(g, &self.tables, base, ids.block(lo, hi), ws),
            |part| parts.push(part),
        );
        let parts = match <[_; 1]>::try_from(parts) {
            Ok([whole]) => return whole,
            Err(parts) => parts,
        };
        let mut arena = RrArena::with_capacity(count, 2 * count);
        let mut widths = Vec::with_capacity(count);
        for (part, part_widths) in &parts {
            arena.append(part);
            widths.extend(part_widths);
        }
        (arena, widths)
    }

    /// Graph-delta repair of one retained stream: resamples — in place,
    /// under the unchanged per-set stream seeds, on `g` (the post-delta
    /// graph this sampler was prepared on) — exactly the sets of `arena`
    /// that contain a changed-edge target (`changed[v]`). A reverse walk
    /// only examines the in-edges of the nodes it visits, so every other
    /// set replays bit-identically on the new graph and is kept; afterwards
    /// `arena` equals a cold resample of the whole stream on `g`. Returns
    /// the number of sets replaced.
    pub fn resample_touched(
        &self,
        g: &CsrGraph,
        seed: u64,
        arena: &mut RrArena,
        changed: &[bool],
    ) -> u64 {
        let ids = arena.sets_touching(changed);
        arena.replace_sets(&ids, &self.sample_indices(g, seed, &ids));
        ids.len() as u64
    }

    /// Traced TIC batch, the shared pool's reweighted growth and repair
    /// path. Samples the sets `ids` of stream `seed` — bit-identical to
    /// [`Self::sample_indices`] at the same indices — and gives each set
    /// `columns` importance weights: `on_decide(slot, thr, accepted, acc)`
    /// fires once per in-slot the set's trajectory decided (see
    /// [`sample_tic_rr_set_into`]), with `thr` the slot's threshold under
    /// this sampler's mixture, and adds log-ratio terms to the set's
    /// `columns` f64 accumulators; each weight is the `exp` of its own
    /// per-set sum, rounded once to `f32`.
    ///
    /// Hands [`STEAL_BLOCK`]-set blocks to `splice` in index order as they
    /// complete, at every worker count — one worker included — so only the
    /// blocks finished ahead of the splice point are held at once, never
    /// the whole batch. Only TIC samplers trace.
    pub(crate) fn sample_traced(
        &self,
        g: &CsrGraph,
        seed: u64,
        ids: SetIds<'_>,
        columns: usize,
        on_decide: impl Fn(usize, u32, bool, &mut [f64]) + Sync,
        mut splice: impl FnMut(TracedBlock) + Send,
    ) {
        let Tables::Tic {
            shared,
            gamma,
            skip_ln,
        } = &self.tables
        else {
            // INVARIANT: API contract — the pool traces only TIC groups.
            unreachable!("traced sampling needs TIC tables");
        };
        if g.num_nodes() == 0 {
            let mut arena = RrArena::new();
            arena.push_empty_sets(ids.len());
            let weights = vec![1.0; ids.len() * columns];
            splice(TracedBlock { arena, weights });
            return;
        }
        let base = mix64(seed);
        steal_blocks(
            g.num_nodes(),
            ids.len(),
            STEAL_BLOCK,
            self.worker_count(ids.len()),
            Handoff::Streamed,
            |lo, hi, ws| {
                let count = hi - lo;
                let mut arena = RrArena::with_capacity(count, 2 * count);
                let mut weights = Vec::with_capacity(count * columns);
                let mut acc = vec![0.0f64; columns];
                for idx in ids.block(lo, hi) {
                    sample_tic_rr_set_into(
                        g,
                        shared,
                        gamma,
                        skip_ln,
                        ws,
                        mix64(base ^ idx),
                        &mut arena,
                        &mut |slot, thr, accepted| on_decide(slot, thr, accepted, &mut acc),
                    );
                    weights.extend(acc.iter().map(|a| a.exp() as f32));
                    acc.fill(0.0);
                }
                TracedBlock { arena, weights }
            },
            splice,
        );
    }

    /// The shared per-topic in-slot table of a TIC sampler.
    pub(crate) fn tic_table(&self) -> Option<&TicInSlots> {
        match &self.tables {
            Tables::Tic { shared, .. } => Some(shared),
            _ => None,
        }
    }

    /// Prepares `model` on `g` with this sampler's thread settings (cap and
    /// forced count) — how a graph delta rebuilds a sampler in place.
    pub(crate) fn prepare_like(&self, g: &CsrGraph, model: &DiffusionModel) -> Self {
        PreparedSampler {
            thread_cap: self.thread_cap,
            thread_count: self.thread_count,
            ..Self::for_model(g, model)
        }
    }

    /// Worker count for a call sampling `count` sets: the forced count, or
    /// the hardware parallelism under the cap — never more than the call
    /// has steal blocks. Batches that fit one block (KPT pilot rounds,
    /// small growth steps, small repairs) never query the hardware.
    fn worker_count(&self, count: usize) -> usize {
        let limit = count.div_ceil(STEAL_BLOCK).min(32);
        match self.thread_count {
            Some(t) => t.min(limit),
            None => {
                let cap = self.thread_cap.min(limit);
                if cap <= 1 {
                    1
                } else {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                        .min(cap)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use rm_graph::builder::graph_from_edges;

    fn chain() -> CsrGraph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn rr_set_contains_target_first() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let mut ws = RrWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        for _ in 0..50 {
            sample_rr_set(&g, &probs, &mut ws, &mut rng, &mut out);
            assert!(!out.is_empty());
            // With probability-1 edges, an RR set of target t on a chain is
            // exactly {0..=t}.
            let t = out[0] as usize;
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..=t as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_probabilities_give_singletons() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![0.0; 3]);
        let mut ws = RrWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut out = Vec::new();
        for _ in 0..20 {
            sample_rr_set(&g, &probs, &mut ws, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn width_counts_incoming_edges_of_the_set() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let mut ws = RrWorkspace::new(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        for _ in 0..20 {
            let w = sample_rr_set(&g, &probs, &mut ws, &mut rng, &mut out);
            let expect: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(w, expect);
        }
    }

    #[test]
    fn batch_sets_are_valid_rr_sets() {
        // Chain with p = 1: every RR set of target t is exactly {0..=t}, and
        // its width is the member in-degree sum — independent of the RNG.
        let g = chain();
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let (arena, widths) = PreparedSampler::new(&g, &probs).sample_batch(&g, 200, 3, 0);
        assert_eq!(arena.len(), 200);
        for (set, &w) in arena.iter().zip(&widths) {
            let t = set[0];
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..=t).collect::<Vec<_>>());
            let expect: u64 = set.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(w, expect);
        }
    }

    #[test]
    fn forced_thread_counts_are_bit_identical() {
        // 2500 sets span three steal blocks (1024, 1024, 452 — an uneven
        // tail): any forced worker count must pull blocks off the cursor and
        // splice back to exactly the sequential arena and widths. This
        // exercises the work-stealing path even on single-core machines,
        // where hardware detection alone would never leave the
        // `threads == 1` fast path. Inputs: the IC chain, and IC, LT and TIC
        // on the star-chain graph, whose in-star takes the geometric-skip
        // path (the TIC widths feed the KPT pilot).
        let chain_g = chain();
        let star_g = graph_from_edges(23, &star_chain_edges());
        let chain_ic = DiffusionModel::ic(AdProbs::from_vec(vec![0.5; 3]));
        let inputs = std::iter::once((&chain_g, chain_ic))
            .chain(three_models(&star_g).into_iter().map(|m| (&star_g, m)));
        for (i, (g, model)) in inputs.enumerate() {
            let mut s = PreparedSampler::for_model(g, &model);
            s.set_thread_count(1);
            let (want, want_w) = s.sample_batch(g, 2500, 9, 0);
            assert_eq!(want.len(), 2500);
            for t in [2, 3, 5, 8] {
                s.set_thread_count(t);
                let (got, got_w) = s.sample_batch(g, 2500, 9, 0);
                assert_eq!(got, want, "input {i}: arena differs at {t} forced workers");
                assert_eq!(
                    got_w, want_w,
                    "input {i}: widths differ at {t} forced workers"
                );
            }
        }
    }

    #[test]
    fn small_batches_under_one_block_stay_sequential_and_identical() {
        // Fewer sets than one steal block: worker count clamps to 1 and the
        // result still matches any forced setting.
        let g = chain();
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let mut s = PreparedSampler::new(&g, &probs);
        s.set_thread_count(7);
        let (a, wa) = s.sample_batch(&g, 100, 9, 0);
        let (b, wb) = PreparedSampler::new(&g, &probs).sample_batch(&g, 100, 9, 0);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
    }

    #[test]
    fn prepared_sampler_matches_one_shot() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let prepared = PreparedSampler::new(&g, &probs);
        let (a, wa) = prepared.sample_batch(&g, 60, 21, 0);
        let (b, wb) = PreparedSampler::new(&g, &probs).sample_batch(&g, 60, 21, 0);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
    }

    #[test]
    fn batch_deterministic_and_indexed() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let (a, wa) = PreparedSampler::new(&g, &probs).sample_batch(&g, 100, 9, 0);
        let (b, wb) = PreparedSampler::new(&g, &probs).sample_batch(&g, 100, 9, 0);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        // Growing a sample continues the same logical sequence.
        let (full, _) = PreparedSampler::new(&g, &probs).sample_batch(&g, 150, 9, 0);
        let (tail, _) = PreparedSampler::new(&g, &probs).sample_batch(&g, 50, 9, 100);
        assert!(full.iter().skip(100).eq(tail.iter()));
    }

    #[test]
    fn stream_seeds_do_not_collide_across_salted_bases() {
        // Regression for the cross-advertiser stream-correlation bug: with
        // xor-composed derivation (`mix64(seed ^ idx)`), bases salted with
        // `j << 20` collide at shifted indices — ad j's set i and ad j''s set
        // `i ^ ((j ^ j') << 20)` shared an RNG stream. Chained mixing must
        // give every (ad, index) pair a distinct stream seed.
        let cfg_seed = 0x5EED_u64;
        let mut seen = std::collections::HashSet::new();
        for j in 0..8u64 {
            let ad_seed = stream_seed(cfg_seed ^ 0x005A_3D17, j);
            for idx in 0..4096u64 {
                assert!(
                    seen.insert(stream_seed(ad_seed, idx)),
                    "stream collision at ad {j}, set {idx}"
                );
            }
        }
        // The old scheme really did collide, at indices inside one batch:
        // mix64((s ^ (1 << 20)) ^ 0) == mix64((s ^ (2 << 20)) ^ ((1 ^ 2) << 20)).
        let old = |seed: u64, idx: u64| mix64(seed ^ idx);
        assert_eq!(
            old(cfg_seed ^ (1 << 20), 0),
            old(cfg_seed ^ (2 << 20), 3 << 20)
        );
    }

    #[test]
    fn geometric_skip_path_matches_bernoulli_frequencies() {
        // In-star: 20 leaves each pointing at center 20, all edges p = 0.5.
        // The center's in-degree (20 ≥ SKIP_MIN_DEGREE, uniform p) forces the
        // geometric-skip path. Pr[leaf ∈ R] = (1 + 0.5)/21 (root is the leaf
        // itself, or the center and the leaf's coin landed heads), so
        // σ({leaf}) = 21 · Pr = 1.5.
        let edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        let g = graph_from_edges(21, &edges);
        let probs = AdProbs::from_vec(vec![0.5; 20]);
        let theta = 60_000;
        let (sets, _) = PreparedSampler::new(&g, &probs).sample_batch(&g, theta, 13, 0);
        let count0 = sets.iter().filter(|s| s.contains(&0)).count();
        let est = 21.0 * count0 as f64 / theta as f64;
        assert!((est - 1.5).abs() < 0.05, "σ({{leaf}}) est {est}, want 1.5");
        // Center sets: size - 1 leaves accepted, Binomial(20, 1/2) ⇒ mean 10.
        let center_sizes: Vec<usize> = sets
            .iter()
            .filter(|s| s[0] == 20)
            .map(|s| s.len() - 1)
            .collect();
        let mean = center_sizes.iter().sum::<usize>() as f64 / center_sizes.len() as f64;
        assert!(
            (mean - 10.0).abs() < 0.1,
            "accepted-leaf mean {mean}, want 10"
        );
    }

    #[test]
    fn lt_chain_sets_are_prefix_paths() {
        // LT with weight 1 on every edge: the reverse walk from target t
        // deterministically follows the chain back to 0, so the RR set of
        // target t is exactly the path t, t−1, …, 0 — and its width is the
        // member in-degree sum.
        let g = chain();
        let model = DiffusionModel::lt(&g, AdProbs::from_vec(vec![1.0; 3]));
        let (arena, widths) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 200, 3, 0);
        assert_eq!(arena.len(), 200);
        for (set, &w) in arena.iter().zip(&widths) {
            let t = set[0];
            let expect: Vec<NodeId> = (0..=t).rev().collect();
            assert_eq!(set, &expect[..], "LT chain walk must be a prefix path");
            let expect_w: u64 = set.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(w, expect_w);
        }
    }

    #[test]
    fn lt_batch_deterministic_and_indexed() {
        let g = chain();
        let model = DiffusionModel::lt(&g, AdProbs::from_vec(vec![0.5; 3]));
        let (a, wa) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 100, 9, 0);
        let (b, wb) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 100, 9, 0);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        // Growing a sample continues the same logical sequence.
        let (full, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 150, 9, 0);
        let (tail, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 50, 9, 100);
        assert!(full.iter().skip(100).eq(tail.iter()));
        // Thread-cap independence: capped at 1 worker, same arena.
        let mut capped = PreparedSampler::for_model(&g, &model);
        capped.set_thread_cap(1);
        let (c, wc) = capped.sample_batch(&g, 100, 9, 0);
        assert_eq!(a, c);
        assert_eq!(wa, wc);
    }

    #[test]
    fn lt_membership_frequency_estimates_singleton_spread() {
        // Two parents with weight 0.5 each into node 2 (no other edges).
        // σ_LT({0}) = Pr[root=0] + Pr[root=2]·Pr[2 picks edge from 0] scaled
        // by n: 3 · (1/3 + 1/3·1/2) = 1.5.
        let g = graph_from_edges(3, &[(0, 2), (1, 2)]);
        let model = DiffusionModel::lt(&g, AdProbs::from_vec(vec![0.5, 0.5]));
        let theta = 60_000;
        let (sets, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, theta, 17, 0);
        let count0 = sets.iter().filter(|s| s.contains(&0)).count();
        let est = 3.0 * count0 as f64 / theta as f64;
        assert!((est - 1.5).abs() < 0.03, "σ({{0}}) est {est}, want 1.5");
    }

    #[test]
    fn lt_zero_weight_edges_never_traversed() {
        // In-star onto node 20 where half the edges have weight zero: sets
        // through the center may only contain positive-weight leaves.
        let edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        let g = graph_from_edges(21, &edges);
        let w: Vec<f32> = (0..20)
            .map(|leaf| if leaf % 2 == 0 { 0.1 } else { 0.0 })
            .collect();
        let model = DiffusionModel::lt(&g, AdProbs::from_vec(w));
        let (sets, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 20_000, 23, 0);
        for set in sets.iter() {
            for &v in &set[1..] {
                if v < 20 {
                    assert!(v % 2 == 0, "zero-weight in-edge from leaf {v} traversed");
                }
            }
        }
    }

    #[test]
    fn tic_delta_mixture_is_bit_identical_to_flat_ic() {
        // A delta mixture on topic z must drive the lazy-mixing TIC sampler
        // through byte-identical arenas to flat IC built from column z.
        use rm_diffusion::{TicModel, TopicDistribution};
        let g = chain();
        let l = 3;
        let probs: Vec<f32> = (0..g.num_edges())
            .flat_map(|e| [0.9, 0.3 + 0.1 * e as f32, 0.05])
            .collect();
        let tic = std::sync::Arc::new(TicModel::from_matrix(&g, l, probs));
        for z in 0..l {
            let tic_model = DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::delta(l, z));
            let flat: Vec<f32> = (0..g.num_edges() as u32)
                .map(|e| tic.topic_prob(e, z))
                .collect();
            let ic_model = DiffusionModel::ic(AdProbs::from_vec(flat));
            let (a, wa) = PreparedSampler::for_model(&g, &tic_model).sample_batch(&g, 400, 7, 0);
            let (b, wb) = PreparedSampler::for_model(&g, &ic_model).sample_batch(&g, 400, 7, 0);
            assert_eq!(a, b, "topic {z}: arenas differ");
            assert_eq!(wa, wb);
        }
    }

    #[test]
    fn tic_geometric_skip_path_matches_bernoulli_frequencies() {
        // TIC in-star: 20 leaves into center 20, two topics mixing to a
        // uniform 0.5 on every edge under the uniform mixture — forcing the
        // TIC geometric-skip path. Same expectation math as the IC version:
        // σ({leaf}) = 21 · (1 + 0.5)/21 = 1.5.
        use rm_diffusion::{TicModel, TopicDistribution};
        let edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        let g = graph_from_edges(21, &edges);
        let probs: Vec<f32> = (0..20).flat_map(|_| [0.8, 0.2]).collect();
        let tic = std::sync::Arc::new(TicModel::from_matrix(&g, 2, probs));
        let gamma = TopicDistribution::uniform(2);
        let model = DiffusionModel::tic(Arc::clone(&tic), gamma.clone());
        // Precondition: the mixture really is uniform, so skip_ln engages.
        let sampler = PreparedSampler::for_model(&g, &model);
        let Tables::Tic { ref skip_ln, .. } = sampler.tables else {
            panic!("expected TIC tables");
        };
        assert!(skip_ln[20] < 0.0, "center must take the geometric path");
        let theta = 60_000;
        let (sets, _) = sampler.sample_batch(&g, theta, 13, 0);
        let count0 = sets.iter().filter(|s| s.contains(&0)).count();
        let est = 21.0 * count0 as f64 / theta as f64;
        assert!((est - 1.5).abs() < 0.05, "σ({{leaf}}) est {est}, want 1.5");
        let center_sizes: Vec<usize> = sets
            .iter()
            .filter(|s| s[0] == 20)
            .map(|s| s.len() - 1)
            .collect();
        let mean = center_sizes.iter().sum::<usize>() as f64 / center_sizes.len() as f64;
        assert!(
            (mean - 10.0).abs() < 0.1,
            "accepted-leaf mean {mean}, want 10"
        );
    }

    #[test]
    fn tic_batch_deterministic_and_indexed() {
        use rm_diffusion::{TicModel, TopicDistribution};
        let g = chain();
        let probs: Vec<f32> = (0..g.num_edges()).flat_map(|_| [0.7, 0.2]).collect();
        let tic = std::sync::Arc::new(TicModel::from_matrix(&g, 2, probs));
        let model = DiffusionModel::tic(tic, TopicDistribution::new(&[0.4, 0.6]));
        let (a, wa) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 100, 9, 0);
        let (b, wb) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 100, 9, 0);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        // Growing a sample continues the same logical sequence.
        let (full, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 150, 9, 0);
        let (tail, _) = PreparedSampler::for_model(&g, &model).sample_batch(&g, 50, 9, 100);
        assert!(full.iter().skip(100).eq(tail.iter()));
        // Thread-cap independence: capped at 1 worker, same arena.
        let mut capped = PreparedSampler::for_model(&g, &model);
        capped.set_thread_cap(1);
        let (c, wc) = capped.sample_batch(&g, 100, 9, 0);
        assert_eq!(a, c);
        assert_eq!(wa, wc);
    }

    #[test]
    fn tic_traced_range_is_bit_identical_to_untraced_batches() {
        use rm_diffusion::{TicModel, TopicDistribution};
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Mixed-degree graph hitting both the per-edge and the skip path:
        // an in-star (degree 20, uniform mixed probability 0.5) plus a
        // low-degree chain. 3,000 sets span three steal blocks.
        let g = graph_from_edges(23, &star_chain_edges());
        let probs: Vec<f32> = (0..g.num_edges()).flat_map(|_| [0.8, 0.2]).collect();
        let tic = std::sync::Arc::new(TicModel::from_matrix(&g, 2, probs));
        let gamma = TopicDistribution::uniform(2);
        let mut sampler =
            PreparedSampler::for_model(&g, &DiffusionModel::tic(Arc::clone(&tic), gamma.clone()));
        let Tables::Tic { ref skip_ln, .. } = sampler.tables else {
            panic!("expected TIC tables");
        };
        assert!(skip_ln[20] < 0.0, "center must take the geometric path");
        let (want, _) = sampler.sample_batch(&g, 3_000, 77, 0);
        let shared = tic.in_slot_view(&g);
        // One column: ln ½ per accepted slot, so a set's weight is
        // 2^-(accepted decisions).
        let decisions = AtomicUsize::new(0);
        let trace = |slot: usize, thr: u32, accepted: bool, acc: &mut [f64]| {
            assert_eq!(thr, threshold(shared.mixed_prob(slot, gamma.weights())));
            decisions.fetch_add(1, Ordering::Relaxed);
            if accepted {
                acc[0] += 0.5f64.ln();
            }
        };
        let traced = |s: &PreparedSampler, ids: SetIds<'_>| {
            let mut arena = RrArena::new();
            let mut weights = Vec::new();
            s.sample_traced(&g, 77, ids, 1, trace, |b| {
                arena.append(&b.arena);
                weights.extend(b.weights);
            });
            (arena, weights)
        };
        let mut first: Option<Vec<f32>> = None;
        for t in [1, 2, 8] {
            sampler.set_thread_count(t);
            let (arena, weights) = traced(&sampler, SetIds::Range(0, 3_000));
            assert_eq!(arena, want, "tracing perturbed the sample at {t} workers");
            assert_eq!(weights.len(), 3_000);
            for (set, &w) in arena.iter().zip(&weights) {
                // Every member but the root was accepted once.
                let bound = 0.5f64.powi(set.len() as i32 - 1) as f32;
                assert!(w > 0.0 && w <= bound * 1.000_001, "{set:?}: {w}");
                if g.in_degree(set[0]) == 0 {
                    assert_eq!(w, 1.0, "undecided sets keep weight exactly 1");
                }
            }
            match &first {
                None => first = Some(weights),
                Some(f) => assert_eq!(&weights, f, "weights differ at {t} workers"),
            }
        }
        assert!(
            decisions.load(Ordering::Relaxed) > 0,
            "the trace saw nothing"
        );
        // Split ranges continue the same logical stream, and a sparse index
        // list samples exactly those sets.
        let (a, _) = traced(&sampler, SetIds::Range(0, 100));
        let (b, _) = traced(&sampler, SetIds::Range(100, 3_000));
        let mut split = a;
        split.append(&b);
        assert_eq!(split, want);
        let ids = [3usize, 50, 51, 2_999];
        let (sparse, _) = traced(&sampler, SetIds::List(&ids));
        assert_eq!(sparse, sampler.sample_indices(&g, 77, &ids));
    }

    /// In-star onto node 20 (degree 20: the geometric-skip path) plus a
    /// low-degree chain 20 → 21 → 22 → 0 (the per-edge path).
    fn star_chain_edges() -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        edges.extend([(20, 21), (21, 22), (22, 0)]);
        edges
    }

    /// IC, LT and TIC models over `g`, with per-edge parameters that keep
    /// the in-star's probabilities uniform (so its skip path engages).
    fn three_models(g: &CsrGraph) -> Vec<DiffusionModel> {
        use rm_diffusion::{TicModel, TopicDistribution};
        let m = g.num_edges();
        let tic_probs: Vec<f32> = (0..m).flat_map(|_| [0.8, 0.2]).collect();
        let tic = Arc::new(TicModel::from_matrix(g, 2, tic_probs));
        vec![
            DiffusionModel::ic(AdProbs::from_vec(vec![0.5; m])),
            DiffusionModel::lt(g, AdProbs::from_vec(vec![0.05; m])),
            DiffusionModel::tic(tic, TopicDistribution::new(&[0.4, 0.6])),
        ]
    }

    #[test]
    fn sample_indices_equals_one_set_batches() {
        // Any id list — sparse, dense, a single id — must reproduce the
        // one-set batches at `first_index = id` bit-for-bit, under every
        // model and forced worker count. The sparse and dense lists span
        // several steal blocks, so the work-stealing path runs too.
        let g = graph_from_edges(23, &star_chain_edges());
        let sparse: Vec<usize> = (0..20_000).step_by(7).collect();
        let dense: Vec<usize> = (500..3_000).collect();
        let single = vec![12_345usize];
        for model in three_models(&g) {
            let mut s = PreparedSampler::for_model(&g, &model);
            for ids in [&sparse, &dense, &single] {
                let want: RrArena = ids
                    .iter()
                    .map(|&id| s.sample_batch(&g, 1, 41, id as u64).0.get(0).to_vec())
                    .collect();
                for t in [1, 2, 8] {
                    s.set_thread_count(t);
                    let got = s.sample_indices(&g, 41, ids);
                    assert_eq!(got, want, "{} ids at {t} workers", ids.len());
                }
            }
        }
    }

    #[test]
    fn sample_indices_handles_empty_lists_and_empty_graphs() {
        let g = chain();
        let s = PreparedSampler::new(&g, &AdProbs::from_vec(vec![0.5; 3]));
        assert_eq!(s.sample_indices(&g, 5, &[]), s.sample_batch(&g, 0, 5, 0).0);
        // A 0-node graph yields one empty set per id, like `sample_batch`.
        let empty = graph_from_edges(0, &[]);
        let s0 = PreparedSampler::new(&empty, &AdProbs::from_vec(Vec::new()));
        let got = s0.sample_indices(&empty, 5, &[0, 9, 4]);
        assert_eq!(got, s0.sample_batch(&empty, 3, 5, 0).0);
        assert_eq!(got.len(), 3);
        assert_eq!(got.total_nodes(), 0);
    }

    #[test]
    fn resample_touched_repairs_a_private_arena_to_a_cold_resample() {
        // Remove chain edge (21, 22): only node 22's in-slots change, so
        // only sets containing 22 can diverge. After the repair, the arena
        // must equal a cold θ-set sample of the post-delta graph — under
        // every model and forced worker count, with enough invalidated sets
        // to span several steal blocks.
        let theta = 60_000;
        let edges = star_chain_edges();
        let g = graph_from_edges(23, &edges);
        let kept: Vec<(u32, u32)> = edges.iter().copied().filter(|&e| e != (21, 22)).collect();
        let g2 = graph_from_edges(23, &kept);
        let mut changed = [false; 23];
        changed[22] = true;
        for (before, after) in three_models(&g).iter().zip(three_models(&g2)) {
            let (arena, _) = PreparedSampler::for_model(&g, before).sample_batch(&g, theta, 3, 0);
            let touched = arena.sets_touching(&changed).len();
            assert!(
                touched > 2 * STEAL_BLOCK && touched < theta,
                "{touched} touched"
            );
            let mut s2 = PreparedSampler::for_model(&g2, &after);
            let (cold, _) = s2.sample_batch(&g2, theta, 3, 0);
            for t in [1, 2, 8] {
                s2.set_thread_count(t);
                let mut repaired = arena.clone();
                assert_eq!(
                    s2.resample_touched(&g2, 3, &mut repaired, &changed),
                    touched as u64
                );
                assert_eq!(repaired, cold, "repair differs at {t} workers");
            }
        }
    }

    #[test]
    fn tic_per_ad_memory_excludes_shared_table() {
        // Per-ad sampler bytes must not scale with the edge-table size; the
        // shared table is reported separately, once, and really is shared.
        use rm_diffusion::{TicModel, TopicDistribution};
        let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i + 1) % 200)).collect();
        let g = graph_from_edges(200, &edges);
        let probs: Vec<f32> = (0..g.num_edges())
            .flat_map(|_| [0.5, 0.1, 0.2, 0.0])
            .collect();
        let tic = std::sync::Arc::new(TicModel::from_matrix(&g, 4, probs));
        let samplers: Vec<PreparedSampler> = (0..4)
            .map(|z| {
                PreparedSampler::for_model(
                    &g,
                    &DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::peaked(4, z, 0.91)),
                )
            })
            .collect();
        let shared = tic.in_slot_view(&g);
        for s in &samplers {
            // Per-ad state: L mixture floats + n skip params, nothing
            // proportional to m · L.
            assert!(s.memory_bytes() <= 4 * 4 + 8 * g.num_nodes() + 64);
            assert_eq!(s.shared_table_bytes(), shared.memory_bytes());
            let Tables::Tic {
                shared: ref table, ..
            } = s.tables
            else {
                panic!("expected TIC tables");
            };
            assert!(std::sync::Arc::ptr_eq(table, &shared));
        }
        let ic = PreparedSampler::new(&g, &tic.ad_probs(&TopicDistribution::uniform(4)));
        assert_eq!(ic.shared_table_bytes(), 0);
    }

    #[test]
    fn membership_frequency_estimates_singleton_spread() {
        // σ({u}) = n * Pr[u ∈ R]. Chain with p=1: σ({0}) = 4.
        let g = chain();
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let theta = 20_000;
        let (sets, _) = PreparedSampler::new(&g, &probs).sample_batch(&g, theta, 11, 0);
        let count0 = sets.iter().filter(|s| s.contains(&0)).count();
        let est = 4.0 * count0 as f64 / theta as f64;
        assert!((est - 4.0).abs() < 0.05, "est {est}");
    }
}
