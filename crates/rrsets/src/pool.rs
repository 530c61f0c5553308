//! Shared cross-advertiser RR-set pool with per-ad importance reweighting.
//!
//! Every advertiser of one instance estimates coverage on RR sets drawn from
//! *its own* diffusion model, but the models of a campaign are rarely
//! distinct: competing ads share a topic mixture bit-for-bit, and
//! topic-aware ads differ only in the `L` mixture weights over one shared
//! per-topic table. [`SharedRrPool`] exploits this: ads are grouped by
//! diffusion model, each group samples **one** arena from its reference
//! model, and every tenant reads the same sets — so total sampling cost
//! scales with the number of *distinct* models, not the number of ads.
//!
//! Three tenant modes ([`TenantMode`]):
//!
//! * **Identical** — the tenant's model equals the group reference
//!   bit-for-bit (content-equal IC/LT parameters, or a TIC mixture equal to
//!   the reference mixture). The shared sets are distributed exactly as the
//!   tenant's private stream would be; weights are omitted (unit weight).
//! * **Reweighted** — a TIC tenant over the group's shared table with a
//!   *different* mixture `γ`. The group samples under the reference mixture
//!   `q` and attaches one importance weight per RR set per distinct
//!   mixture (see below), making every weighted coverage count an unbiased
//!   estimate under the tenant's own mixture. Tenants with equal mixtures
//!   read one shared weight column.
//! * **Private** — the tenant cannot share (its mixture puts probability on
//!   a slot the reference never fires, or vice versa at probability one).
//!   The pool serves nothing; the caller falls back to a private stream.
//!   This is the "resample fallback": importance weights for such a tenant
//!   would be unbounded/invalid, so the only sound move is fresh sampling.
//!
//! # The weight
//!
//! The sampler decides each in-slot it reaches with an integer coin:
//! accept iff `coin < thr` where `thr = ⌈p·2²⁴⌉` and the coin is uniform on
//! `[0, 2²⁴)` (see `sampler::threshold`). An RR-set trajectory is therefore
//! a sequence of per-slot Bernoulli outcomes with effective probability
//! `thr/2²⁴`, plus root selection and traversal order that do not depend on
//! the mixture. For a tenant with slot thresholds `thr_γ` sampled under
//! reference thresholds `thr_q`, the likelihood ratio of a trajectory is
//!
//! ```text
//! w(R) = Π_{accepted s} thr_γ(s)/thr_q(s)
//!      · Π_{failed s} (2²⁴ − thr_γ(s)) / (2²⁴ − thr_q(s))
//! ```
//!
//! over exactly the slots whose outcome the trajectory decided (undecided
//! slots — unreached nodes, `thr_q = 0` short-circuits — contribute factor
//! 1 by the support condition below). `E_q[w(R)·1{v ∈ R}] = Pr_γ[v ∈ R]`,
//! so weighted coverage counts are unbiased for the tenant. Identical
//! mixtures give every factor exactly 1 — the ratio is skipped whenever
//! `thr_γ = thr_q`, so the weight is the f64 constant `1.0`, not a rounded
//! product.
//!
//! Validity needs the proposal to cover the target's support in both
//! directions: `thr_q = 0 ⇒ thr_γ = 0` (a slot the reference never decides
//! must be dead for the tenant too) and `thr_q = 2²⁴ ⇒ thr_γ = 2²⁴` (a slot
//! the reference always accepts can never be observed failing). The check
//! runs over the whole table at build time; a violating tenant degrades to
//! [`TenantMode::Private`]. The converse cases are fine: `thr_γ = 0` on an
//! accepted slot just yields weight 0 for that set.
//!
//! # Determinism and bit-identity
//!
//! Group arenas are sampled from the stream `stream_seed(seed ^
//! SAMPLE_SALT, group_index)` with set indices continuing across growth
//! calls, so the pooled sample is a pure function of the build inputs —
//! independent of tenant arrival order, thread counts, and growth batch
//! boundaries. Groups without reweighted tenants grow via
//! [`PreparedSampler::sample_batch`]; groups with reweighted tenants grow
//! via the traced batch (`PreparedSampler::sample_traced`), which runs on
//! the same block scheduler and TIC walk as the untraced batch, is
//! draw-for-draw identical to it, and computes each set's weights from that set's own
//! log-sums. Both are bit-identical at any worker count, and joining a
//! reweighted tenant never changes the sets the other tenants read. Graph
//! deltas repair reweighted groups through the same traced batch, over the
//! list of invalidated set ids.
//!
//! # Locking
//!
//! Each group's state sits behind an `RwLock`. Growth and the KPT cache
//! take the write lock; [`SharedRrPool::with_range`] runs the caller's
//! closure (an index ingest) under a shared read lock, so tenants of one
//! group ingest concurrently.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rm_diffusion::{AdProbs, DiffusionModel, TicInSlots, TicModel};
use rm_graph::CsrGraph;

use crate::arena::RrArena;
use crate::sampler::{stream_seed, threshold, PreparedSampler, SetIds, TracedBlock, COIN_FULL};
use crate::tim::{KptEstimator, TimConfig};

/// Salt of the pool's per-group sampling streams. Distinct from every
/// per-ad salt of the engine (`0x005A_3D17` selection, `0x0B5E_55ED`
/// validation, `0x4B50_7E57` KPT), so pooled selection sets are independent
/// of the private validation streams certified against them.
const SAMPLE_SALT: u64 = 0x7001_5E75;
/// Salt of the pool's per-group KPT pilot streams.
const KPT_SALT: u64 = 0x7001_4B97;

/// How one ad relates to its pool group (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantMode {
    /// Model equals the group reference bit-for-bit: shared sets, unit
    /// weight, shared KPT pilot.
    Identical,
    /// TIC tenant over the shared table with a different mixture: shared
    /// sets with per-set importance weights, private KPT pilot.
    Reweighted,
    /// Cannot share (support violation) or not grouped at all: the caller
    /// keeps its fully private streams.
    Private,
}

/// One tenant's slot in a group: the ad index plus, for reweighted tenants,
/// the index of the tenant's mixture in the group's `mixtures` — and of its
/// weight column (`None` = identical to the reference).
struct TenantSpec {
    ad: usize,
    column: Option<usize>,
}

/// Mutable state of one group, behind its lock.
struct GroupState {
    arena: RrArena,
    /// Importance weights, one column per distinct reweighted mixture
    /// (parallel to the group's `mixtures`), one f32 per arena set.
    weights: Vec<Vec<f32>>,
    /// KPT pilots cached per calibration size `k` (deterministic in the
    /// group's KPT stream, so every identical tenant gets the same pilot).
    kpt: Vec<(usize, KptEstimator)>,
}

/// One model-distinct group of tenants and its shared arena.
struct PoolGroup {
    /// Reference-model sampling tables: growth (traced when the group has
    /// reweighted tenants), the shared KPT pilot, and the worker count.
    sampler: PreparedSampler,
    /// The distinct non-reference mixtures of the reweighted tenants, in
    /// first-seen order; empty when every tenant is identical.
    mixtures: Vec<Vec<f32>>,
    specs: Vec<TenantSpec>,
    sample_seed: u64,
    kpt_seed: u64,
    state: RwLock<GroupState>,
}

/// Multi-tenant RR-set arena pool keyed by diffusion model. See the module
/// docs for the sharing model, the importance weight, and the fallback
/// rules. The read-side methods take `&self`; group state is lock-protected,
/// so the pool can be shared across the engine's per-ad initialization
/// workers.
pub struct SharedRrPool {
    groups: Vec<PoolGroup>,
    /// Per-ad `(group, tenant position)`; `None` = [`TenantMode::Private`].
    assignment: Vec<Option<(usize, usize)>>,
    /// Per-ad departure flags ([`Self::release_tenant`]): a departed
    /// tenant's slot stays reserved — group indices, stream seeds and the
    /// reference mixture never move — but it no longer holds the group's
    /// arena resident. When the *last* tenant of a group departs, the
    /// group's arena, weight columns and cached pilots are dropped; a
    /// re-arrival regrows the same deterministic stream from scratch.
    departed: Vec<bool>,
}

/// Both support conditions of the importance weight (module docs) over the
/// whole in-slot table.
fn support_compatible(shared: &TicInSlots, gamma_ref: &[f32], gamma: &[f32]) -> bool {
    (0..shared.sources().len()).all(|s| {
        let q = threshold(shared.mixed_prob(s, gamma_ref));
        let t = threshold(shared.mixed_prob(s, gamma));
        (q != 0 || t == 0) && (q != COIN_FULL || t == COIN_FULL)
    })
}

/// A group under construction in pass 1 of [`SharedRrPool::build`].
struct ProtoGroup {
    specs: Vec<TenantSpec>,
    mixtures: Vec<Vec<f32>>,
}

impl ProtoGroup {
    fn founded_by(ad: usize) -> Self {
        ProtoGroup {
            specs: vec![TenantSpec { ad, column: None }],
            mixtures: Vec::new(),
        }
    }

    /// Adds a tenant and returns its position.
    fn join(&mut self, ad: usize, column: Option<usize>) -> usize {
        self.specs.push(TenantSpec { ad, column });
        self.specs.len() - 1
    }
}

/// Grouping key of pass 1 — borrows the caller's models.
enum Key<'a> {
    /// Flat IC/LT parameters; `lt` keeps the two kinds distinct even when
    /// their parameter vectors coincide.
    Flat { lt: bool, probs: &'a AdProbs },
    /// A shared TIC table (keyed by pointer — one table per `TicModel`).
    Tic { tic: &'a Arc<TicModel> },
}

impl SharedRrPool {
    /// Groups `models` (indexed by ad) into model-distinct pools. Ads are
    /// scanned in index order, so group indices — and hence every sampling
    /// stream — are deterministic in the input order. `thread_cap` bounds
    /// the worker threads a uniform group's growth may spawn.
    pub fn build(g: &CsrGraph, models: &[DiffusionModel], seed: u64, thread_cap: usize) -> Self {
        // Pass 1: assign each ad to a group (by content-equal flat
        // parameters, or by shared TIC table + mixture compatibility).
        let mut keys: Vec<Key> = Vec::new();
        let mut protos: Vec<ProtoGroup> = Vec::new();
        let mut assignment: Vec<Option<(usize, usize)>> = Vec::with_capacity(models.len());
        for (ad, model) in models.iter().enumerate() {
            let slot = match model {
                DiffusionModel::IndependentCascade(p) | DiffusionModel::LinearThreshold(p) => {
                    let lt = matches!(model, DiffusionModel::LinearThreshold(_));
                    let found = keys.iter().position(|k| match k {
                        Key::Flat { lt: klt, probs } => {
                            *klt == lt
                                && (p.shares_storage(probs) || p.as_slice() == probs.as_slice())
                        }
                        Key::Tic { .. } => false,
                    });
                    match found {
                        Some(gid) => Some((gid, protos[gid].join(ad, None))),
                        None => {
                            keys.push(Key::Flat { lt, probs: p });
                            protos.push(ProtoGroup::founded_by(ad));
                            Some((protos.len() - 1, 0))
                        }
                    }
                }
                DiffusionModel::Tic { tic, gamma } => {
                    let found = keys.iter().position(|k| match k {
                        Key::Tic { tic: kt } => Arc::ptr_eq(kt, tic),
                        Key::Flat { .. } => false,
                    });
                    match found {
                        Some(gid) => {
                            let proto = &mut protos[gid];
                            // The reference mixture is the group founder's.
                            // INVARIANT: every proto group is created with
                            // its founding tenant already pushed.
                            let ref_gamma = models[proto.specs[0].ad]
                                .tic_parts()
                                .expect("TIC group founded by a TIC model")
                                .1
                                .weights();
                            let gamma = gamma.weights();
                            if gamma == ref_gamma {
                                Some((gid, proto.join(ad, None)))
                            } else if let Some(c) = proto.mixtures.iter().position(|m| m == gamma) {
                                // A mixture seen before: same support
                                // verdict, same weights — share its column.
                                Some((gid, proto.join(ad, Some(c))))
                            } else if support_compatible(&tic.in_slot_view(g), ref_gamma, gamma) {
                                proto.mixtures.push(gamma.to_vec());
                                let column = proto.mixtures.len() - 1;
                                Some((gid, proto.join(ad, Some(column))))
                            } else {
                                None // support violation: private fallback
                            }
                        }
                        None => {
                            keys.push(Key::Tic { tic });
                            protos.push(ProtoGroup::founded_by(ad));
                            Some((protos.len() - 1, 0))
                        }
                    }
                }
            };
            assignment.push(slot);
        }

        // Pass 2: materialize the groups (reference tables, seeds, empty
        // state). Only TIC tenants ever get a mixture (pass 1), so a group
        // with mixtures has a TIC reference sampler to trace.
        let groups = protos
            .into_iter()
            .enumerate()
            .map(|(gid, ProtoGroup { specs, mixtures })| {
                let mut sampler = PreparedSampler::for_model(g, &models[specs[0].ad]);
                sampler.set_thread_cap(thread_cap);
                let weights = vec![Vec::new(); mixtures.len()];
                PoolGroup {
                    sampler,
                    mixtures,
                    specs,
                    sample_seed: stream_seed(seed ^ SAMPLE_SALT, gid as u64),
                    kpt_seed: stream_seed(seed ^ KPT_SALT, gid as u64),
                    state: RwLock::new(GroupState {
                        arena: RrArena::new(),
                        weights,
                        kpt: Vec::new(),
                    }),
                }
            })
            .collect();
        let departed = vec![false; assignment.len()];
        SharedRrPool {
            groups,
            assignment,
            departed,
        }
    }

    /// This ad's relation to the pool (see [`TenantMode`]). Ads beyond the
    /// build's model slice are `Private`.
    pub fn mode(&self, ad: usize) -> TenantMode {
        match self.assignment.get(ad).copied().flatten() {
            None => TenantMode::Private,
            Some((gid, pos)) => {
                if self.groups[gid].specs[pos].column.is_some() {
                    TenantMode::Reweighted
                } else {
                    TenantMode::Identical
                }
            }
        }
    }

    /// The group's shared KPT pilot for calibration size `k`, cached per
    /// `(group, k)` — every identical tenant pays for one pilot. Returns
    /// `None` for reweighted and private tenants: a reweighted tenant's
    /// spread differs from the reference's, so its `OPT` lower bound must
    /// come from a pilot under its *own* model (the caller samples one
    /// privately).
    pub fn kpt(&self, g: &CsrGraph, ad: usize, k: usize, tim: &TimConfig) -> Option<KptEstimator> {
        let (gid, pos) = self.assignment.get(ad).copied().flatten()?;
        let group = &self.groups[gid];
        if group.specs[pos].column.is_some() {
            return None;
        }
        let mut st = write_group(group);
        if let Some((_, est)) = st.kpt.iter().find(|(ck, _)| *ck == k) {
            return Some(est.clone());
        }
        let est = KptEstimator::estimate_with_sampler(g, &group.sampler, k, tim, group.kpt_seed);
        st.kpt.push((k, est.clone()));
        Some(est)
    }

    /// Runs `f` over the tenant's view of the shared sets `lo..hi`: the
    /// group arena (grown on demand under the write lock; growth continues
    /// the group's one logical stream regardless of batch boundaries) and,
    /// for reweighted tenants, the per-set weights of the tenant's mixture
    /// for the range (`None` = unit weight). `f` runs under a shared read
    /// lock, so tenants of one group run it concurrently. Returns `None` for
    /// private tenants — the caller must use its own streams.
    pub fn with_range<R>(
        &self,
        g: &CsrGraph,
        ad: usize,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&RrArena, usize, usize, Option<&[f32]>) -> R,
    ) -> Option<R> {
        let (gid, pos) = self.assignment.get(ad).copied().flatten()?;
        let group = &self.groups[gid];
        if read_group(group).arena.len() < hi {
            let mut st = write_group(group);
            if st.arena.len() < hi {
                grow(g, group, &mut st, hi);
            }
        }
        // Arenas shrink only under `&mut self`, so the range is still
        // resident when the read lock is taken.
        let st = read_group(group);
        let w = group.specs[pos].column.map(|c| &st.weights[c][lo..hi]);
        Some(f(&st.arena, lo, hi, w))
    }

    /// Total RR sets resident in the pool's arenas. KPT pilot draws are not
    /// counted, matching the engine's private-path accounting (which counts
    /// selection/validation sets only).
    pub fn sets_sampled(&self) -> u64 {
        self.groups
            .iter()
            .map(|grp| read_group(grp).arena.len() as u64)
            .sum()
    }

    /// Resident bytes of the pool: arenas, weight columns, reference
    /// sampling tables, and the reweighted mixtures. The shared TIC
    /// per-topic table is **excluded** — it is owned by the `TicModel` and
    /// accounted once per instance (`PreparedSampler::shared_table_bytes`),
    /// not per pool.
    pub fn memory_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|grp| {
                let st = read_group(grp);
                let weight_bytes: usize = st.weights.iter().map(|w| 4 * w.capacity()).sum();
                let mixture_bytes: usize = grp.mixtures.iter().map(|m| 4 * m.capacity()).sum();
                st.arena.memory_bytes() + weight_bytes + grp.sampler.memory_bytes() + mixture_bytes
            })
            .sum()
    }

    /// Number of model-distinct groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Ads served by the pool (identical + reweighted tenants).
    pub fn pooled_ads(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Pooled ads carrying importance weights.
    pub fn reweighted_ads(&self) -> usize {
        self.assignment
            .iter()
            .flatten()
            .filter(|&&(gid, pos)| self.groups[gid].specs[pos].column.is_some())
            .count()
    }

    /// Marks a tenant departed (advertiser removal). Its slot stays
    /// reserved — group indices, stream seeds and the reference mixture are
    /// pinned at build time — but when the *last* tenant of its group
    /// departs, the group's arena, weight columns and cached KPT pilots are
    /// dropped, returning the pool's resident memory for that model. A
    /// later [`Self::restore_tenant`] + `with_range` regrows the identical
    /// deterministic stream from scratch. Returns `true` when this
    /// departure emptied the group and its state was dropped.
    pub fn release_tenant(&mut self, ad: usize) -> bool {
        let Some((gid, _)) = self.assignment.get(ad).copied().flatten() else {
            return false;
        };
        self.departed[ad] = true;
        let group = &self.groups[gid];
        if !group.specs.iter().all(|t| self.departed[t.ad]) {
            return false;
        }
        let mut st = write_group(group);
        st.arena = RrArena::new();
        for w in &mut st.weights {
            *w = Vec::new();
        }
        st.kpt.clear();
        true
    }

    /// Re-activates a departed tenant (advertiser re-arrival). No-op for
    /// private ads and tenants that never departed.
    pub fn restore_tenant(&mut self, ad: usize) {
        if ad < self.departed.len() {
            self.departed[ad] = false;
        }
    }

    /// Repairs the pool after a graph delta: rebuilds every group's
    /// sampling tables on the new graph, then resamples —
    /// *in place*, under the unchanged per-set stream seeds — exactly the
    /// arena sets whose traces the delta could have touched: the sets
    /// containing a changed-edge **target** (`changed[v]`). A reverse RR
    /// walk only examines the in-edges of nodes it visits, so a set free of
    /// changed targets replays bit-identically on the new graph; after the
    /// repair each group arena is bit-identical to a cold resample of the
    /// same range on the new graph. Reweighted groups resample through the
    /// same traced batch as their growth, recomputing every weight column
    /// for the resampled sets (untouched sets keep their weights: identical
    /// trajectories have identical likelihood ratios).
    /// Cached KPT pilots are dropped — a tenant arriving after the delta
    /// re-pilots on the new graph. Returns the number of sets resampled.
    ///
    /// `models` must be the post-delta models of the same ads, in the same
    /// order, grouped identically (same pricing rule): tenant grouping is
    /// pinned at build time and is not re-derived here.
    pub fn apply_delta(
        &mut self,
        g: &CsrGraph,
        models: &[DiffusionModel],
        changed: &[bool],
    ) -> u64 {
        // INVARIANT: API contract — one post-delta model per build-time ad.
        assert_eq!(models.len(), self.assignment.len(), "model per ad");
        let mut resampled = 0u64;
        for group in &mut self.groups {
            group.sampler = group.sampler.prepare_like(g, &models[group.specs[0].ad]);
            let group = &*group;
            let mut st = write_group(group);
            st.kpt.clear();
            let st = &mut *st;
            if group.mixtures.is_empty() {
                resampled +=
                    group
                        .sampler
                        .resample_touched(g, group.sample_seed, &mut st.arena, changed);
                continue;
            }
            let ids = st.arena.sets_touching(changed);
            let mut repl = RrArena::with_capacity(ids.len(), 2 * ids.len());
            group.sample_weighted(g, SetIds::List(&ids), &mut repl, &mut st.weights);
            st.arena.replace_sets(&ids, &repl);
            resampled += ids.len() as u64;
        }
        resampled
    }
}

/// Takes a group's read lock.
fn read_group(group: &PoolGroup) -> RwLockReadGuard<'_, GroupState> {
    // INVARIANT: poisoning means a sibling panicked mid-growth, leaving an
    // arena/weights length mismatch; propagating is the only sound response.
    group.state.read().expect("pool group lock poisoned")
}

/// Takes a group's write lock.
fn write_group(group: &PoolGroup) -> RwLockWriteGuard<'_, GroupState> {
    // INVARIANT: as in `read_group`.
    group.state.write().expect("pool group lock poisoned")
}

/// Grows a group's arena (and its weight columns) to `hi` sets, continuing
/// the group's logical sampling stream.
fn grow(g: &CsrGraph, group: &PoolGroup, st: &mut GroupState, hi: usize) {
    let have = st.arena.len();
    if group.mixtures.is_empty() {
        // No reweighted tenants: the untraced reference batch.
        let (part, _widths) =
            group
                .sampler
                .sample_batch(g, hi - have, group.sample_seed, have as u64);
        st.arena.append(&part);
        return;
    }
    // The set count and the weight columns' final size are known; the node
    // count is not (every set holds at least its root), so the arena grows
    // by appends and drops its spare capacity at the end. Reserving here,
    // on the calling thread, keeps the arena out of the sampler workers'
    // allocator arenas: the workers that splice the blocks only grow it.
    st.arena.reserve(hi - have, hi - have);
    for col in &mut st.weights {
        col.reserve_exact(hi - have);
        col.resize(hi, 0.0);
    }
    let ids = SetIds::Range(have as u64, hi as u64);
    group.sample_weighted(g, ids, &mut st.arena, &mut st.weights);
    st.arena.shrink_to_fit();
}

impl PoolGroup {
    /// Samples the sets `ids` of the group stream through the reference
    /// sampler's traced batch: appends them to `arena` in order and writes
    /// set `id`'s importance weight under mixture `c` to `weights[c][id]`.
    /// Each block is dropped as soon as it is spliced. Per decided slot,
    /// each mixture whose threshold `t` differs from the reference
    /// threshold `q` adds its log likelihood ratio to its accumulator;
    /// equal thresholds contribute factor 1 exactly and are skipped, which
    /// keeps an identical slot at zero rounding.
    fn sample_weighted(
        &self,
        g: &CsrGraph,
        ids: SetIds<'_>,
        arena: &mut RrArena,
        weights: &mut [Vec<f32>],
    ) {
        // INVARIANT: only TIC tenants ever get a mixture (`build`, pass 1),
        // so a group with mixtures has a TIC reference sampler.
        let shared = self
            .sampler
            .tic_table()
            .expect("reweighted group must be TIC");
        let mixtures = &self.mixtures;
        let on_decide = |slot: usize, q: u32, accepted: bool, acc: &mut [f64]| {
            for (a, gamma) in acc.iter_mut().zip(mixtures) {
                let t = threshold(shared.mixed_prob(slot, gamma));
                if t == q {
                    continue;
                }
                // `accepted` implies `q > 0` (zero thresholds never consume
                // a draw); `!accepted` implies `q < 2²⁴`. `t == 0` on an
                // accepted slot gives ln 0 = −∞ and a clean weight of 0 for
                // this set.
                *a += if accepted {
                    (f64::from(t) / f64::from(q)).ln()
                } else {
                    (f64::from(COIN_FULL - t) / f64::from(COIN_FULL - q)).ln()
                };
            }
        };
        let columns = mixtures.len();
        let mut at = ids.iter();
        let splice = |block: TracedBlock| {
            arena.append(&block.arena);
            // Chunks first: `zip` must not pull an id past the block.
            for (set_w, id) in block.weights.chunks_exact(columns).zip(at.by_ref()) {
                for (col, &w) in weights.iter_mut().zip(set_w) {
                    col[id as usize] = w;
                }
            }
        };
        let seed = self.sample_seed;
        self.sampler
            .sample_traced(g, seed, ids, columns, on_decide, splice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_diffusion::{TicModel, TopicDistribution};
    use rm_graph::builder::graph_from_edges;

    /// In-star (degree 20, exercising the geometric-skip path) plus a
    /// low-degree chain, two topics.
    fn star_chain() -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        edges.extend([(20, 21), (21, 22), (22, 0)]);
        graph_from_edges(23, &edges)
    }

    fn star_chain_tic(g: &CsrGraph) -> Arc<TicModel> {
        let probs: Vec<f32> = (0..g.num_edges()).flat_map(|_| [0.8, 0.2]).collect();
        Arc::new(TicModel::from_matrix(g, 2, probs))
    }

    #[test]
    fn identical_ic_tenants_share_one_group_bit_identically() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = AdProbs::from_vec(vec![0.5; 3]);
        // One storage-sharing twin, one content-equal separate allocation.
        let models = vec![
            DiffusionModel::ic(p.clone()),
            DiffusionModel::ic(p.clone()),
            DiffusionModel::ic(AdProbs::from_vec(vec![0.5; 3])),
        ];
        let pool = SharedRrPool::build(&g, &models, 42, usize::MAX);
        assert_eq!(pool.num_groups(), 1);
        assert_eq!(pool.pooled_ads(), 3);
        assert_eq!(pool.reweighted_ads(), 0);
        for ad in 0..3 {
            assert_eq!(pool.mode(ad), TenantMode::Identical);
        }
        // The shared arena is exactly the reference model's private stream
        // under the pool's seed.
        let (want, _) =
            PreparedSampler::new(&g, &p).sample_batch(&g, 150, stream_seed(42 ^ SAMPLE_SALT, 0), 0);
        for ad in 0..3 {
            pool.with_range(&g, ad, 0, 150, |arena, lo, hi, w| {
                assert!(w.is_none(), "identical tenants carry no weights");
                assert_eq!((lo, hi), (0, 150));
                assert_eq!(arena, &want);
            })
            .unwrap();
        }
        // Three tenants, one sample.
        assert_eq!(pool.sets_sampled(), 150);
    }

    #[test]
    fn ic_and_lt_with_equal_params_stay_distinct() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = AdProbs::from_vec(vec![0.5; 3]);
        let models = vec![
            DiffusionModel::ic(p.clone()),
            DiffusionModel::lt(&g, p.clone()),
        ];
        let pool = SharedRrPool::build(&g, &models, 7, usize::MAX);
        assert_eq!(pool.num_groups(), 2, "IC and LT must never share a group");
    }

    #[test]
    fn distinct_ic_params_get_distinct_groups() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let models = vec![
            DiffusionModel::ic(AdProbs::from_vec(vec![0.5; 3])),
            DiffusionModel::ic(AdProbs::from_vec(vec![0.6; 3])),
        ];
        let pool = SharedRrPool::build(&g, &models, 7, usize::MAX);
        assert_eq!(pool.num_groups(), 2);
        let (a0, a1) = (
            pool.with_range(&g, 0, 0, 50, |a, _, _, _| a.clone())
                .unwrap(),
            pool.with_range(&g, 1, 0, 50, |a, _, _, _| a.clone())
                .unwrap(),
        );
        assert_ne!(a0, a1, "distinct models must sample distinct streams");
    }

    #[test]
    fn tic_identical_mixtures_pool_without_weights() {
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let gamma = TopicDistribution::uniform(2);
        let models: Vec<DiffusionModel> = (0..3)
            .map(|_| DiffusionModel::tic(Arc::clone(&tic), gamma.clone()))
            .collect();
        let pool = SharedRrPool::build(&g, &models, 11, usize::MAX);
        assert_eq!(pool.num_groups(), 1);
        assert_eq!(pool.reweighted_ads(), 0);
        let (want, _) = PreparedSampler::for_model(&g, &models[0]).sample_batch(
            &g,
            200,
            stream_seed(11 ^ SAMPLE_SALT, 0),
            0,
        );
        pool.with_range(&g, 2, 0, 200, |arena, _, _, w| {
            assert!(w.is_none());
            assert_eq!(arena, &want);
        })
        .unwrap();
    }

    #[test]
    fn reweighted_group_keeps_sets_bit_identical_and_unit_weights_for_ref() {
        // Joining a reweighted tenant switches the group to traced growth;
        // the sets the identical tenants read must not change, and the
        // reference tenant must stay weightless.
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let models = vec![
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::uniform(2)),
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::new(&[0.9, 0.1])),
        ];
        let pool = SharedRrPool::build(&g, &models, 11, usize::MAX);
        assert_eq!(pool.num_groups(), 1);
        assert_eq!(pool.mode(0), TenantMode::Identical);
        assert_eq!(pool.mode(1), TenantMode::Reweighted);
        let (want, _) = PreparedSampler::for_model(&g, &models[0]).sample_batch(
            &g,
            300,
            stream_seed(11 ^ SAMPLE_SALT, 0),
            0,
        );
        pool.with_range(&g, 0, 0, 300, |arena, _, _, w| {
            assert!(w.is_none(), "reference tenant must be unit-weight");
            assert_eq!(arena, &want, "traced growth changed the shared sets");
        })
        .unwrap();
        pool.with_range(&g, 1, 0, 300, |_, _, _, w| {
            let w = w.expect("reweighted tenant must carry weights");
            assert_eq!(w.len(), 300);
            assert!(w.iter().all(|&x| x.is_finite() && x >= 0.0));
        })
        .unwrap();
    }

    #[test]
    fn reweighted_coverage_is_unbiased_for_the_tenant_mixture() {
        // Weighted membership frequency under the pooled reference stream
        // must agree with private sampling under the tenant's own mixture.
        let g = star_chain();
        let tic = star_chain_tic(&g);
        // Mild per-slot tilt (mixed prob 0.38 vs the reference's 0.50)
        // keeps the weight variance bounded over the star's 20 decided
        // slots while the spreads stay ~0.3 apart, so ignoring the weights
        // would fail the tolerance below.
        let tenant_gamma = TopicDistribution::new(&[0.3, 0.7]);
        let models = vec![
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::uniform(2)),
            DiffusionModel::tic(Arc::clone(&tic), tenant_gamma.clone()),
        ];
        let pool = SharedRrPool::build(&g, &models, 5, usize::MAX);
        let theta = 60_000;
        let n = g.num_nodes() as f64;
        // Probe both a star leaf (skip path) and a chain node (per-edge).
        for probe in [0u32, 22] {
            let (weighted_hits, raw_hits) = pool
                .with_range(&g, 1, 0, theta, |arena, _, _, w| {
                    let w = w.unwrap();
                    let wh: f64 = arena
                        .iter()
                        .zip(w)
                        .filter(|(set, _)| set.contains(&probe))
                        .map(|(_, &wi)| f64::from(wi))
                        .sum();
                    let rh = arena.iter().filter(|set| set.contains(&probe)).count();
                    (wh, rh)
                })
                .unwrap();
            let sigma_pooled = n * weighted_hits / theta as f64;
            let sigma_unweighted = n * raw_hits as f64 / theta as f64;
            let tenant_model = DiffusionModel::tic(Arc::clone(&tic), tenant_gamma.clone());
            let (private, _) =
                PreparedSampler::for_model(&g, &tenant_model).sample_batch(&g, theta, 999, 0);
            let hits = private.iter().filter(|s| s.contains(&probe)).count();
            let sigma_private = n * hits as f64 / theta as f64;
            assert!(
                (sigma_pooled - sigma_private).abs() < 0.2,
                "node {probe}: pooled-weighted {sigma_pooled} vs private {sigma_private}"
            );
            // The weights must actually matter: the raw (reference) count
            // estimates the reference spread, ~0.3 above the tenant's.
            assert!(
                sigma_unweighted - sigma_pooled > 0.1,
                "node {probe}: unweighted {sigma_unweighted} vs weighted {sigma_pooled}"
            );
        }
        // Importance weights have mean 1 under the reference.
        let mean_w = pool
            .with_range(&g, 1, 0, theta, |_, _, _, w| {
                w.unwrap().iter().map(|&x| f64::from(x)).sum::<f64>() / theta as f64
            })
            .unwrap();
        assert!((mean_w - 1.0).abs() < 0.05, "mean weight {mean_w}");
    }

    #[test]
    fn zero_overlap_mixture_falls_back_to_private() {
        // The delta(1) reference never decides any slot (topic 1 fires
        // nothing), so it cannot represent a delta(0) tenant that does:
        // support violation, private fallback. (The converse — a tenant
        // whose slots are a *subset* of the reference's — is IS-valid.)
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let probs: Vec<f32> = vec![0.8, 0.0, 0.8, 0.0, 0.8, 0.0];
        let tic = Arc::new(TicModel::from_matrix(&g, 2, probs));
        let models = vec![
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::delta(2, 1)),
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::delta(2, 0)),
        ];
        let pool = SharedRrPool::build(&g, &models, 3, usize::MAX);
        assert_eq!(pool.mode(0), TenantMode::Identical);
        assert_eq!(pool.mode(1), TenantMode::Private);
        assert_eq!(pool.pooled_ads(), 1);
        assert!(pool.with_range(&g, 1, 0, 10, |_, _, _, _| ()).is_none());
        assert!(pool.kpt(&g, 1, 1, &TimConfig::default()).is_none());
        // An always-fires reference (p = 1 somewhere) can likewise never
        // represent a tenant that might fail that slot.
        let probs2: Vec<f32> = vec![1.0, 0.5, 1.0, 0.5, 1.0, 0.5];
        let tic2 = Arc::new(TicModel::from_matrix(&g, 2, probs2));
        let models2 = vec![
            DiffusionModel::tic(Arc::clone(&tic2), TopicDistribution::delta(2, 0)),
            DiffusionModel::tic(Arc::clone(&tic2), TopicDistribution::new(&[0.5, 0.5])),
        ];
        let pool2 = SharedRrPool::build(&g, &models2, 3, usize::MAX);
        assert_eq!(pool2.mode(1), TenantMode::Private);
    }

    #[test]
    fn growth_extends_one_logical_stream() {
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let models = vec![
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::uniform(2)),
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::new(&[0.7, 0.3])),
        ];
        // Incremental growth (100, then 300) must equal one-shot growth.
        let pool_a = SharedRrPool::build(&g, &models, 13, usize::MAX);
        let (arena_inc, w_inc) = pool_a
            .with_range(&g, 1, 0, 100, |_, _, _, _| ())
            .and_then(|()| {
                pool_a.with_range(&g, 1, 0, 300, |a, _, _, w| (a.clone(), w.unwrap().to_vec()))
            })
            .unwrap();
        let pool_b = SharedRrPool::build(&g, &models, 13, usize::MAX);
        let (arena_one, w_one) = pool_b
            .with_range(&g, 1, 0, 300, |a, _, _, w| (a.clone(), w.unwrap().to_vec()))
            .unwrap();
        assert_eq!(arena_inc, arena_one);
        assert_eq!(w_inc, w_one);
        assert_eq!(pool_a.sets_sampled(), 300);
    }

    #[test]
    fn kpt_is_cached_per_group_and_size() {
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let gamma = TopicDistribution::uniform(2);
        let models: Vec<DiffusionModel> = (0..2)
            .map(|_| DiffusionModel::tic(Arc::clone(&tic), gamma.clone()))
            .collect();
        let pool = SharedRrPool::build(&g, &models, 17, usize::MAX);
        let tim = TimConfig::default();
        let a = pool.kpt(&g, 0, 1, &tim).unwrap();
        let b = pool.kpt(&g, 1, 1, &tim).unwrap();
        // Same group stream, same pilot: identical bound for every k.
        assert_eq!(a.calibration().1, b.calibration().1);
        for k in [1usize, 2, 5] {
            assert_eq!(a.opt_lower_bound(k), b.opt_lower_bound(k));
        }
        // Different calibration size is a different cache entry, still
        // deterministic.
        let c = pool.kpt(&g, 0, 2, &tim).unwrap();
        assert_eq!(c.calibration().0, 2);
    }

    #[test]
    fn release_frees_group_on_last_departure_and_regrowth_is_deterministic() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = AdProbs::from_vec(vec![0.5; 3]);
        let models = vec![DiffusionModel::ic(p.clone()), DiffusionModel::ic(p)];
        let mut pool = SharedRrPool::build(&g, &models, 23, usize::MAX);
        let before = pool
            .with_range(&g, 0, 0, 100, |a, _, _, _| a.clone())
            .unwrap();
        let grown = pool.memory_bytes();
        // First departure keeps the group resident for the surviving tenant.
        assert!(!pool.release_tenant(0));
        assert_eq!(pool.sets_sampled(), 100);
        // Last departure drops the arena.
        assert!(pool.release_tenant(1));
        assert_eq!(pool.sets_sampled(), 0);
        assert!(
            pool.memory_bytes() < grown,
            "emptied group must return its resident memory"
        );
        // Re-arrival regrows the identical deterministic stream.
        pool.restore_tenant(0);
        pool.with_range(&g, 0, 0, 100, |a, _, _, _| assert_eq!(a, &before))
            .unwrap();
        // Private / out-of-range ads are inert no-ops.
        assert!(!pool.release_tenant(7));
        pool.restore_tenant(7);
    }

    #[test]
    fn apply_delta_resamples_exactly_the_changed_target_sets() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let models = vec![DiffusionModel::ic(AdProbs::from_vec(vec![0.5; 3]))];
        let mut pool = SharedRrPool::build(&g, &models, 29, usize::MAX);
        let theta = 200;
        let invalid = pool
            .with_range(&g, 0, 0, theta, |a, _, _, _| {
                a.iter().filter(|s| s.contains(&3)).count()
            })
            .unwrap();
        assert!(invalid > 0 && invalid < theta, "test needs a partial hit");
        // Remove edge (2, 3): only node 3's in-slots change, so only sets
        // containing 3 can have diverging traces.
        let g2 = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let models2 = vec![DiffusionModel::ic(AdProbs::from_vec(vec![0.5; 2]))];
        let changed = [false, false, false, true];
        let resampled = pool.apply_delta(&g2, &models2, &changed);
        assert_eq!(resampled, invalid as u64);
        // After the repair the arena is bit-identical to a cold pool grown
        // on the post-delta graph under the same seed.
        let cold = SharedRrPool::build(&g2, &models2, 29, usize::MAX);
        let want = cold
            .with_range(&g2, 0, 0, theta, |a, _, _, _| a.clone())
            .unwrap();
        pool.with_range(&g2, 0, 0, theta, |a, _, _, _| assert_eq!(a, &want))
            .unwrap();
    }

    /// Forces every group sampler of `pool` to exactly `t` workers.
    fn force_workers(pool: &mut SharedRrPool, t: usize) {
        for grp in &mut pool.groups {
            grp.sampler.set_thread_count(t);
        }
    }

    /// The group-0 arena and every weight column, grown to `hi` sets.
    fn snapshot(pool: &SharedRrPool, g: &CsrGraph, hi: usize) -> (RrArena, Vec<Vec<f32>>) {
        pool.with_range(g, 0, 0, hi, |_, _, _, _| ()).unwrap();
        let st = read_group(&pool.groups[0]);
        (st.arena.clone(), st.weights.clone())
    }

    /// Reference uniform, then [.7,.3], [.3,.7], [.7,.3]: three reweighted
    /// tenants over two distinct mixtures.
    fn repeated_mixture_models(tic: &Arc<TicModel>) -> Vec<DiffusionModel> {
        [[0.5, 0.5], [0.7, 0.3], [0.3, 0.7], [0.7, 0.3]]
            .iter()
            .map(|w| DiffusionModel::tic(Arc::clone(tic), TopicDistribution::new(w)))
            .collect()
    }

    #[test]
    fn reweighted_growth_is_bit_identical_at_any_worker_count() {
        // 5,000 sets span five steal blocks, so forced counts above one run
        // the parallel traced path; arena and weight columns must not move.
        let g = star_chain();
        let models = repeated_mixture_models(&star_chain_tic(&g));
        let theta = 5_000;
        let mut want = None;
        for t in [1, 2, 8] {
            let mut pool = SharedRrPool::build(&g, &models, 37, usize::MAX);
            force_workers(&mut pool, t);
            let got = snapshot(&pool, &g, theta);
            assert_eq!(got.0.len(), theta);
            assert_eq!(got.1.len(), 2, "one column per distinct mixture");
            assert!(got.1.iter().all(|c| c.len() == theta));
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "group differs at {t} workers"),
            }
            // Growing 0..700 and then 700..5,000 equals one growth.
            let mut split = SharedRrPool::build(&g, &models, 37, usize::MAX);
            force_workers(&mut split, t);
            snapshot(&split, &g, 700);
            assert_eq!(
                Some(snapshot(&split, &g, theta)),
                want,
                "split growth differs at {t} workers"
            );
        }
        // The shared sets are the reference model's untraced stream.
        let (reference, _) = PreparedSampler::for_model(&g, &models[0]).sample_batch(
            &g,
            theta,
            stream_seed(37 ^ SAMPLE_SALT, 0),
            0,
        );
        assert_eq!(want.unwrap().0, reference);
    }

    #[test]
    fn equal_mixtures_share_one_weight_column() {
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let models = repeated_mixture_models(&tic);
        let pool = SharedRrPool::build(&g, &models, 41, usize::MAX);
        assert_eq!(pool.reweighted_ads(), 3);
        assert_eq!(pool.groups[0].mixtures.len(), 2);
        let theta = 2_000;
        let column = |ad: usize| {
            pool.with_range(&g, ad, 0, theta, |_, _, _, w| {
                let w = w.unwrap();
                (w.as_ptr(), w.to_vec())
            })
            .unwrap()
        };
        let (p1, w1) = column(1);
        let (p3, w3) = column(3);
        assert_eq!(p1, p3, "equal mixtures must read one column");
        assert_ne!(column(2).0, p1, "distinct mixtures get distinct columns");
        // The shared column equals what a lone tenant with that mixture
        // gets.
        let lone = SharedRrPool::build(&g, &models[..2], 41, usize::MAX);
        let want = lone
            .with_range(&g, 1, 0, theta, |_, _, _, w| w.unwrap().to_vec())
            .unwrap();
        assert_eq!(w1, want);
        assert_eq!(w3, want);
    }

    #[test]
    fn apply_delta_repairs_reweighted_groups_with_their_weights() {
        // Remove chain edge (21, 22): only node 22's in-slots change. At
        // 30,000 sets the invalidated sets span several steal blocks.
        let g = star_chain();
        let models = repeated_mixture_models(&star_chain_tic(&g));
        let mut edges: Vec<(u32, u32)> = (0..20).map(|leaf| (leaf, 20)).collect();
        edges.extend([(20, 21), (22, 0)]);
        let g2 = graph_from_edges(23, &edges);
        let models2 = repeated_mixture_models(&star_chain_tic(&g2));
        let mut changed = [false; 23];
        changed[22] = true;
        let theta = 30_000;
        let cold = snapshot(
            &SharedRrPool::build(&g2, &models2, 31, usize::MAX),
            &g2,
            theta,
        );
        for t in [1, 8] {
            let mut pool = SharedRrPool::build(&g, &models, 31, usize::MAX);
            force_workers(&mut pool, t);
            snapshot(&pool, &g, theta);
            let resampled = pool.apply_delta(&g2, &models2, &changed);
            assert!(
                resampled > 2 * 1024 && (resampled as usize) < theta,
                "{resampled} resampled"
            );
            assert_eq!(
                snapshot(&pool, &g2, theta),
                cold,
                "repair at {t} workers must match a cold regrow"
            );
        }
    }

    #[test]
    fn memory_accounts_weights_and_tables() {
        let g = star_chain();
        let tic = star_chain_tic(&g);
        let models = vec![
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::uniform(2)),
            DiffusionModel::tic(Arc::clone(&tic), TopicDistribution::new(&[0.6, 0.4])),
        ];
        let pool = SharedRrPool::build(&g, &models, 19, usize::MAX);
        let before = pool.memory_bytes();
        pool.with_range(&g, 0, 0, 500, |_, _, _, _| ()).unwrap();
        let after = pool.memory_bytes();
        assert!(
            after >= before + 500 * 4,
            "growth must show up in the accounting: {before} -> {after}"
        );
    }
}
