//! The resident allocation service: a long-lived engine over the batch
//! round core (`engine.rs`) and epoch machinery (`epoch.rs`) that absorbs
//! advertiser arrivals, departures and graph deltas incrementally instead
//! of recomputing from scratch (see DESIGN.md → "Resident engine and
//! incremental operations").
//!
//! Three invariants make incrementality sound:
//!
//! * **Stable ad ids.** Ads live in `Option` slots indexed by ad id; every
//!   per-ad RNG stream (pilot, selection, validation) is a pure function of
//!   `(cfg.seed, ad id)`, so an ad initialized on arrival is bit-identical
//!   to the same ad initialized in a batch run — which is why
//!   [`super::TiEngine::run`] can be a thin wrapper over this type and keep
//!   every golden snapshot bit-identical.
//! * **Per-set RNG streams keyed by global set index.** Sampler seeds
//!   depend only on `(stream seed, set index)`, never on batch boundaries,
//!   so a graph delta can resample exactly the invalidated sets in place
//!   ([`rm_rrsets::PreparedSampler::resample_touched`]) and every surviving
//!   set keeps the stream that produced it.
//! * **Target-only invalidation.** A reverse RR walk examines the in-edges
//!   of exactly the nodes it visits, so a set's trace can touch a changed
//!   edge `(u, v)` only if the set contains the *target* `v`. Sets free of
//!   changed targets replay bit-identically on the new graph and are kept.
//!
//! No wall clocks here: per-event latency is the replay driver's business
//! (`rm-bench serve`), keeping wallclock-in-results confined to rm-bench.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — ad ids are validated against `ads.len()` at every public
// entry point before use, node ids come from `NodeId`s of the engine's own
// instance (whose node count is pinned across deltas by the
// `InstanceMismatch` check) or from a caller's `GraphDelta` (validated
// against that count by the `NodeOutOfRange` check), and per-ad vectors
// are sized to the instance at build time.

use std::sync::Arc;

use rm_diffusion::DiffusionKind;
use rm_graph::NodeId;
use rm_rrsets::{LazyGreedyHeap, PreparedSampler, RrCoverage, SharedRrPool, TenantMode};

use crate::allocation::SeedAllocation;
use crate::instance::RmInstance;
use crate::metrics::RunStats;

use super::ad_state::AdState;
use super::config::{AlgorithmKind, ScalableConfig, ScalableConfigError};
use super::engine::SelectionPolicy;
use super::epoch::{available_cores, par_map_ordered, terminal_ad_bytes, EngineCtx};

/// How the engine holds its instance: borrowed for the one-shot batch
/// wrapper (no graph deltas possible), owned behind an [`Arc`] for resident
/// service so [`ResidentEngine::apply_graph_delta`] can swap it.
pub(crate) enum InstHandle<'a> {
    Borrowed(&'a RmInstance),
    Owned(Arc<RmInstance>),
}

impl InstHandle<'_> {
    #[inline]
    pub(crate) fn get(&self) -> &RmInstance {
        match self {
            InstHandle::Borrowed(inst) => inst,
            InstHandle::Owned(inst) => inst,
        }
    }
}

/// An edge-level graph change batch. The post-delta instance (graph,
/// models, incentives) is rebuilt by the caller and handed to
/// [`ResidentEngine::apply_graph_delta`]; the delta lists which edges moved
/// so the engine can bound invalidation to sets containing a changed
/// **target** node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Edges `(u, v)` inserted by the new instance.
    pub inserts: Vec<(NodeId, NodeId)>,
    /// Edges `(u, v)` removed by the new instance.
    pub removes: Vec<(NodeId, NodeId)>,
}

impl GraphDelta {
    /// Bitmap of nodes whose in-edge slots changed — the edge *targets*.
    /// Only RR sets containing one of these can have a diverging trace.
    pub fn changed_targets(&self, n: usize) -> Vec<bool> {
        let mut changed = vec![false; n];
        for &(_, v) in self.inserts.iter().chain(self.removes.iter()) {
            changed[v as usize] = true;
        }
        changed
    }
}

/// One serviced event of a resident engine's lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// Advertisers admitted (batch admission lists every ad).
    Arrival { ads: Vec<usize> },
    /// Advertiser departed; its seeds were released.
    Departure { ad: usize },
    /// Graph delta applied (edge counts, not the edges themselves).
    GraphDelta { inserts: usize, removes: usize },
}

/// Outcome record of one incremental operation — the replay driver's event
/// log. Deterministic given `(script, cfg.seed)`: no wall-clock fields.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeEvent {
    /// What happened.
    pub op: ServeOp,
    /// Greedy rounds this event ran to re-converge.
    pub rounds: usize,
    /// Total internal revenue estimate across active ads *after* the event.
    pub revenue: f64,
    /// Total committed seeds across active ads after the event.
    pub seeds_total: usize,
    /// RR sets invalidated by this event (graph deltas only).
    pub invalidated_sets: u64,
    /// RR sets resampled to repair the invalidation (graph deltas only).
    pub resampled_sets: u64,
}

/// A rejected resident-engine operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ResidentError {
    /// The configuration failed [`ScalableConfig::validate`].
    InvalidConfig(ScalableConfigError),
    /// Ad id at or past the instance's ad count.
    AdOutOfRange(usize),
    /// Arrival of an ad that is already active.
    AdAlreadyActive(usize),
    /// Departure (or duplicate arrival) of an ad that is not active.
    AdNotActive(usize),
    /// The same ad listed twice in one arrival batch.
    DuplicateAd(usize),
    /// The post-delta instance changed node or ad count (deltas repair
    /// state in place and cannot renumber it), or an instance's per-ad
    /// diffusion parameters or incentives do not fit its own graph.
    InstanceMismatch,
    /// A graph-delta edge endpoint at or past the instance's node count.
    NodeOutOfRange(NodeId),
    /// Graph deltas need retained RR sets; the batch wrapper runs with
    /// retention off.
    SetsNotRetained,
}

impl std::fmt::Display for ResidentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResidentError::InvalidConfig(e) => write!(f, "invalid config: {e}"),
            ResidentError::AdOutOfRange(j) => write!(f, "ad {j} out of range"),
            ResidentError::AdAlreadyActive(j) => write!(f, "ad {j} already active"),
            ResidentError::AdNotActive(j) => write!(f, "ad {j} not active"),
            ResidentError::DuplicateAd(j) => write!(f, "ad {j} listed twice"),
            ResidentError::InstanceMismatch => {
                write!(
                    f,
                    "instance must fit its graph and keep node and ad counts across deltas"
                )
            }
            ResidentError::NodeOutOfRange(v) => write!(f, "delta node {v} out of range"),
            ResidentError::SetsNotRetained => {
                write!(f, "graph deltas require retained RR sets (resident mode)")
            }
        }
    }
}

impl std::error::Error for ResidentError {}

impl From<ScalableConfigError> for ResidentError {
    fn from(e: ScalableConfigError) -> Self {
        ResidentError::InvalidConfig(e)
    }
}

/// The long-lived engine. Owns the instance handle, per-ad state slots
/// keyed by stable ad id, the shared RR pool and the assigned bitmap;
/// exposes [`Self::add_advertisers`], [`Self::remove_advertiser`] and
/// [`Self::apply_graph_delta`], each of which repairs state and re-runs the
/// round loop to convergence. [`Self::finish`] produces the same terminal
/// `(SeedAllocation, RunStats)` accounting as the batch engine.
///
/// `RunStats::elapsed` stays zero here — wall-clock capture is the replay
/// driver's job, never the engine's.
pub struct ResidentEngine<'a> {
    ctx: EngineCtx<'a>,
    assigned: Vec<bool>,
    /// Slot `j` holds ad `j`'s state while admitted (`slot index == ad id`).
    ads: Vec<Option<AdState>>,
    rr_pool: Option<SharedRrPool>,
    rr_cursor: usize,
    policy: SelectionPolicy,
    /// PageRank candidate orders, computed lazily for the baseline kinds
    /// and invalidated by graph deltas.
    pr_orders: Option<Vec<Vec<NodeId>>>,
    stats: RunStats,
    events: Vec<ServeEvent>,
}

impl<'a> ResidentEngine<'a> {
    /// A resident engine owning its instance, with RR-set retention on so
    /// graph deltas can repair in place. Ads start *inactive*; admit them
    /// with [`Self::add_advertisers`].
    pub fn new(
        inst: Arc<RmInstance>,
        kind: AlgorithmKind,
        cfg: ScalableConfig,
    ) -> Result<Self, ResidentError> {
        cfg.validate()?;
        check_instance(&inst)?;
        Ok(Self::build(InstHandle::Owned(inst), kind, cfg, true))
    }

    /// The batch wrapper's construction: borrowed instance, retention off
    /// (the one-shot path never repairs, so retaining raw sets would only
    /// cost memory). Config validation is [`super::TiEngine::try_new`]'s
    /// job on this path.
    pub(crate) fn for_batch(
        inst: &'a RmInstance,
        kind: AlgorithmKind,
        cfg: ScalableConfig,
    ) -> Self {
        Self::build(InstHandle::Borrowed(inst), kind, cfg, false)
    }

    fn build(inst: InstHandle<'a>, kind: AlgorithmKind, cfg: ScalableConfig, retain: bool) -> Self {
        let ctx = EngineCtx::new(inst, kind, cfg, retain);
        let n = ctx.inst().num_nodes();
        let h = ctx.inst().num_ads();
        let policy = ctx.selection_policy();
        // Built up front from *all* ads' models so group membership and
        // stream seeds are pinned regardless of arrival order; groups
        // sample nothing until a tenant reads them.
        let rr_pool = ctx.build_rr_pool();
        ResidentEngine {
            assigned: vec![false; n],
            ads: (0..h).map(|_| None).collect(),
            rr_pool,
            rr_cursor: 0,
            policy,
            pr_orders: None,
            stats: RunStats::default(),
            events: Vec::new(),
            ctx,
        }
    }

    /// Admits one advertiser and re-runs selection to convergence.
    /// Warm-start: only the newcomer is initialized (pool tenancy restored,
    /// marginal θ sampled); every incumbent keeps its seeds, sample and
    /// cached candidate — arrivals only add competition, they invalidate
    /// nothing an incumbent's selection already read.
    pub fn add_advertiser(&mut self, ad: usize) -> Result<ServeEvent, ResidentError> {
        self.add_advertisers(std::slice::from_ref(&ad))
    }

    /// Admits a batch of advertisers and re-runs selection to convergence.
    /// The batch engine admits all ads through this path.
    pub fn add_advertisers(&mut self, ids: &[usize]) -> Result<ServeEvent, ResidentError> {
        let h = self.ads.len();
        let mut listed = vec![false; h];
        for &j in ids {
            if j >= h {
                return Err(ResidentError::AdOutOfRange(j));
            }
            if self.ads[j].is_some() {
                return Err(ResidentError::AdAlreadyActive(j));
            }
            if listed[j] {
                return Err(ResidentError::DuplicateAd(j));
            }
            listed[j] = true;
        }
        if let Some(p) = &mut self.rr_pool {
            for &j in ids {
                p.restore_tenant(j);
            }
        }
        self.ensure_pr_orders();
        let states = self.ctx.init_ads(
            ids,
            self.pr_orders.as_deref().unwrap_or(&[]),
            &self.assigned,
            self.rr_pool.as_ref(),
        );
        for st in states {
            let j = st.idx;
            self.ads[j] = Some(st);
        }
        let rounds = self.run_rounds();
        Ok(self.log_event(ServeOp::Arrival { ads: ids.to_vec() }, rounds, 0, 0))
    }

    /// Removes an advertiser: releases its seeds and budget, returns its
    /// pool tenancy (the group arena is dropped when the last tenant
    /// leaves), and re-runs selection — the freed nodes are pickable again.
    ///
    /// The coverage indexes of surviving ads need **no** repair: each ad's
    /// index tracks only its *own* seeds. What must be repaired is the
    /// selection frontier — lazy heaps permanently dropped entries for
    /// nodes that were assigned when popped — so each survivor's heap is
    /// rebuilt from its (untouched) coverage index, its cached candidate is
    /// cleared, and retirement flags reset (budget-retired ads re-retire
    /// deterministically on their next Eq. 10 check).
    pub fn remove_advertiser(&mut self, ad: usize) -> Result<ServeEvent, ResidentError> {
        if ad >= self.ads.len() {
            return Err(ResidentError::AdOutOfRange(ad));
        }
        let st = self.ads[ad].take().ok_or(ResidentError::AdNotActive(ad))?;
        for &v in &st.seeds {
            self.assigned[v as usize] = false;
        }
        drop(st);
        if let Some(p) = &mut self.rr_pool {
            p.release_tenant(ad);
        }
        let needs_pagerank = matches!(
            self.ctx.kind,
            AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
        );
        let n = self.ctx.inst().num_nodes();
        let ctx = &self.ctx;
        for st in self.ads.iter_mut().flatten() {
            st.candidate = None;
            st.exhausted = false;
            if needs_pagerank {
                // Rewind the cursor: freed nodes the cursor already skipped
                // permanently become proposable again (assigned nodes are
                // skipped again on the way back down).
                st.pr_cursor = 0;
            } else {
                st.set_heap(ctx.build_heap(&st.cov, st.idx, &self.assigned));
                self.stats.candidate_evaluations += n as u64;
            }
        }
        let rounds = self.run_rounds();
        Ok(self.log_event(ServeOp::Departure { ad }, rounds, 0, 0))
    }

    /// Applies an edge-level graph delta: swaps in the caller-rebuilt
    /// post-delta instance, then invalidates and resamples — in place,
    /// under unchanged per-set RNG streams — exactly the RR sets whose
    /// traces could have touched a changed edge (the sets containing a
    /// changed-edge target). Coverage indexes are rebuilt from the repaired
    /// arenas, heaps rebuilt, cached candidates dropped, and selection
    /// re-runs to convergence with all committed seeds kept.
    ///
    /// θ and the KPT pilots are **not** re-estimated: Eq. 8's sample sizes
    /// were calibrated on the pre-delta graph and are carried over (the
    /// repaired sample is an exact θ-set sample of the *new* graph; only
    /// the worst-case sizing is stale). A cold restart is the escape hatch
    /// when a delta is large enough to distrust the carried θ.
    ///
    /// The ads are repaired concurrently, on up to `sampler_threads` of the
    /// cores. Every invalidated set is resampled, so the count lands once
    /// in [`RunStats::delta_invalidated_sets`] and twice in the returned
    /// event (`invalidated_sets` and `resampled_sets`).
    pub fn apply_graph_delta(
        &mut self,
        new_inst: Arc<RmInstance>,
        delta: &GraphDelta,
    ) -> Result<ServeEvent, ResidentError> {
        let n = self.ctx.inst().num_nodes();
        let h = self.ads.len();
        if new_inst.num_nodes() != n || new_inst.num_ads() != h {
            return Err(ResidentError::InstanceMismatch);
        }
        check_instance(&new_inst)?;
        if !self.ctx.retain_sets {
            return Err(ResidentError::SetsNotRetained);
        }
        if let Some(v) = (delta.inserts.iter().chain(&delta.removes))
            .flat_map(|&(u, v)| [u, v])
            .find(|&v| v as usize >= n)
        {
            return Err(ResidentError::NodeOutOfRange(v));
        }
        let changed = delta.changed_targets(n);
        self.ctx.inst = InstHandle::Owned(new_inst);
        self.pr_orders = None;
        let mut invalidated = 0u64;
        // Pool repair first: rebuilt samplers/reweight tables, targeted
        // group-arena resample, per-tenant weight recompute.
        if let Some(p) = &mut self.rr_pool {
            let inst = self.ctx.inst.get();
            let models: Vec<_> = (0..h).map(|j| inst.model(j)).collect();
            invalidated += p.apply_delta(&inst.graph, &models, &changed);
        }
        self.ensure_pr_orders();
        // Each ad's repair reads only shared state (the new graph, the
        // repaired pool, `assigned`), so the ads fan out like `init_ads`:
        // `workers` repairs in flight, each sampler capped at its share of
        // the cores, so the product stays at the core count. The width is
        // also capped at `sampler_threads`, so `sampler_threads: 1` stays
        // the sequential path. Counts are summed in ad order.
        let ctx = &self.ctx;
        let assigned = &self.assigned;
        let rr_pool = self.rr_pool.as_ref();
        let pr_orders = self.pr_orders.as_deref().unwrap_or(&[]);
        let jobs: Vec<&mut AdState> = self.ads.iter_mut().flatten().collect();
        let cores = available_cores();
        let workers = cores.min(ctx.cfg.sampler_threads).min(jobs.len()).max(1);
        let inner_threads = (cores / workers).max(1).min(ctx.cfg.sampler_threads);
        let repaired = par_map_ordered(jobs, workers, |st| {
            ctx.repair_ad(st, &changed, assigned, rr_pool, pr_orders, inner_threads)
        });
        for (sets, evaluations) in repaired {
            invalidated += sets;
            self.stats.candidate_evaluations += evaluations;
        }
        self.stats.delta_invalidated_sets += invalidated;
        let rounds = self.run_rounds();
        Ok(self.log_event(
            ServeOp::GraphDelta {
                inserts: delta.inserts.len(),
                removes: delta.removes.len(),
            },
            rounds,
            invalidated,
            invalidated,
        ))
    }

    /// The refresh–arbiter–fixup loop, run until no active ad has a
    /// feasible candidate (Algorithm 2 lines 6–16). Returns the rounds
    /// committed by this call.
    fn run_rounds(&mut self) -> usize {
        let before = self.stats.rounds;
        let n = self.ctx.inst().num_nodes();
        let h = self.ads.len();
        loop {
            // Lines 6–8: one candidate per active ad. Only ads whose cached
            // proposal was invalidated re-run selection, in parallel against
            // the immutable `assigned` snapshot.
            self.ctx.refresh_candidates(
                &mut self.ads,
                &self.assigned,
                &self.policy,
                &mut self.stats,
            );
            if self.ads.iter().flatten().all(|st| st.candidate.is_none()) {
                break;
            }

            // Line 9: the sequential arbiter — global feasible argmax (or
            // round-robin for PR-RR), in the sequential engine's exact
            // iteration and tie-breaking order.
            let winner = self.ctx.choose_winner(&self.ads, self.rr_cursor, n);

            match winner {
                Some(i) => {
                    if matches!(self.ctx.kind, AlgorithmKind::PageRankRr) {
                        self.rr_cursor = (i + 1) % h;
                    }
                    let v = self.ads[i]
                        .as_ref()
                        // INVARIANT: choose_winner only returns active slots
                        // whose candidate is Some (it scores that candidate).
                        .expect("arbiter winner slot is active")
                        .candidate
                        .as_ref()
                        // INVARIANT: ditto — the arbiter scored exactly this
                        // candidate, and nothing ran since.
                        .expect("arbiter winners hold a candidate")
                        .v;
                    self.assigned[v as usize] = true;
                    self.stats.rounds += 1;
                    // Commit (lines 10–14 and 17–22); contended ads drop
                    // their proposal for the next refresh to repair.
                    self.ctx.commit_round(
                        &mut self.ads,
                        i,
                        v,
                        &self.assigned,
                        self.rr_pool.as_ref(),
                        &mut self.stats,
                    );
                }
                None => {
                    // No feasible candidate anywhere this round.
                    if self.ctx.cfg.strict_termination {
                        // Alg. 2 line 16: all advertisers exhausted — return.
                        break;
                    }
                    // Ablation semantics (Alg. 1): permanently discard the
                    // infeasible candidates and keep going.
                    self.ctx.discard_candidates(&mut self.ads);
                }
            }
        }
        self.stats.rounds - before
    }

    /// PageRank candidate orders for the baseline kinds, computed once per
    /// graph (and recomputed after a delta swaps the graph).
    fn ensure_pr_orders(&mut self) {
        if self.pr_orders.is_some() {
            return;
        }
        let needs = matches!(
            self.ctx.kind,
            AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
        );
        let mut orders = if needs {
            crate::baselines::pagerank_orders(self.ctx.inst())
        } else {
            Vec::new()
        };
        orders.resize(self.ads.len(), Vec::new());
        self.pr_orders = Some(orders);
    }

    fn log_event(
        &mut self,
        op: ServeOp,
        rounds: usize,
        invalidated: u64,
        resampled: u64,
    ) -> ServeEvent {
        let ev = ServeEvent {
            op,
            rounds,
            revenue: self.total_revenue(),
            seeds_total: self.ads.iter().flatten().map(|st| st.seeds.len()).sum(),
            invalidated_sets: invalidated,
            resampled_sets: resampled,
        };
        self.events.push(ev.clone());
        ev
    }

    /// The serviced-event log, in order.
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Cumulative run statistics over the engine's lifetime so far.
    /// Departed ads' committed rounds and counters remain included —
    /// these are service statistics, not a snapshot of the live tenant set.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of currently admitted advertisers.
    pub fn active_ads(&self) -> usize {
        self.ads.iter().flatten().count()
    }

    /// Total internal revenue estimate across active ads.
    pub fn total_revenue(&self) -> f64 {
        let inst = self.ctx.inst();
        let n = inst.num_nodes();
        self.ads
            .iter()
            .flatten()
            .map(|st| st.pi(inst.ads[st.idx].cpe, n))
            .sum()
    }

    /// Snapshot of the current allocation (departed ads' slots are empty).
    pub fn allocation(&self) -> SeedAllocation {
        let mut alloc = SeedAllocation::empty(self.ads.len());
        for st in self.ads.iter().flatten() {
            alloc.seeds[st.idx] = st.seeds.clone();
        }
        alloc
    }

    /// Terminal accounting, identical to the batch engine's: per-ad stats,
    /// compacted Table-3 memory (shared TIC tables and pool state counted
    /// once), and the final allocation. Consumes the engine.
    /// `RunStats::elapsed` is left untouched — the caller owns the clock.
    pub fn finish(self) -> (SeedAllocation, RunStats) {
        let ResidentEngine {
            ctx,
            ads,
            rr_pool,
            mut stats,
            ..
        } = self;
        let inst = ctx.inst();
        let n = inst.num_nodes();
        let h = ads.len();
        let mut alloc = SeedAllocation::empty(h);
        stats.seeds_per_ad = vec![0; h];
        stats.theta_per_ad = vec![0; h];
        stats.latent_size_per_ad = vec![0; h];
        stats.revenue_per_ad = vec![0.0; h];
        stats.seeding_cost_per_ad = vec![0.0; h];
        // TIC samplers share one per-topic table across all h ads; count it
        // once (the max, in case some ads carry no table) rather than per ad.
        let mut shared_table_bytes = 0usize;
        // Terminal accounting reads each ad's indexes once, independently:
        // fan it out like `init_ads`, capped at the core count, and sum in
        // ad order.
        let ads: Vec<AdState> = ads.into_iter().flatten().collect();
        let jobs: Vec<&AdState> = ads.iter().collect();
        let workers = available_cores().min(jobs.len());
        let ad_bytes = par_map_ordered(jobs, workers, terminal_ad_bytes);
        for (st, bytes) in ads.into_iter().zip(ad_bytes) {
            let i = st.idx;
            stats.seeds_per_ad[i] = st.seeds.len();
            stats.theta_per_ad[i] = st.theta;
            stats.latent_size_per_ad[i] = st.s_latent;
            stats.revenue_per_ad[i] = st.pi(inst.ads[i].cpe, n);
            stats.seeding_cost_per_ad[i] = st.cost_total;
            stats.rr_memory_bytes += bytes;
            shared_table_bytes = shared_table_bytes.max(st.sampler.shared_table_bytes());
            stats.rr_sets_sampled += st.samples;
            stats.bound_checks += st.bound_checks;
            stats.sample_capped |= st.capped;
            alloc.seeds[i] = st.seeds;
        }
        stats.rr_memory_bytes += shared_table_bytes;
        // Pool arenas, weights and tables are cross-ad state: counted once
        // here, never in the per-ad pass above (pooled ads' `samples`
        // likewise exclude the shared sets, so each set is counted exactly
        // once no matter how many tenants read it).
        if let Some(p) = &rr_pool {
            stats.rr_memory_bytes += p.memory_bytes();
            stats.rr_sets_sampled += p.sets_sampled();
            stats.pool_groups = p.num_groups();
            stats.pooled_ads = p.pooled_ads();
            stats.reweighted_ads = p.reweighted_ads();
        }
        (alloc, stats)
    }
}

/// Rejects an instance the engine would index out of bounds: IC and LT
/// need one parameter vector per ad, one entry per edge of the graph; TIC
/// needs its shared topic table; every ad needs an incentive schedule over
/// the graph's nodes.
fn check_instance(inst: &RmInstance) -> Result<(), ResidentError> {
    let h = inst.num_ads();
    let models_fit = match inst.diffusion {
        DiffusionKind::TopicAwareCascade => inst.tic.is_some(),
        DiffusionKind::IndependentCascade | DiffusionKind::LinearThreshold => {
            let m = inst.graph.num_edges();
            inst.ad_probs.len() == h && inst.ad_probs.iter().all(|p| p.len() == m)
        }
    };
    let n = inst.num_nodes();
    let incentives_fit = inst.incentives.len() == h && inst.incentives.iter().all(|s| s.len() == n);
    if models_fit && incentives_fit {
        Ok(())
    } else {
        Err(ResidentError::InstanceMismatch)
    }
}

impl EngineCtx<'_> {
    /// Repairs one active ad after a graph delta, on the current (post-delta)
    /// instance: re-gathers its sampler (capped at `threads` workers for the
    /// repair, restored to `sampler_threads` after), resamples its
    /// invalidated private sets in place, re-ingests its coverage indexes,
    /// and rebuilds its heap (or rewinds its PageRank cursor). Reads only
    /// shared state, so ads repair concurrently. Returns the sets it
    /// resampled and the candidate evaluations its heap rebuild cost.
    fn repair_ad(
        &self,
        st: &mut AdState,
        changed: &[bool],
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
        pr_orders: &[Vec<NodeId>],
        threads: usize,
    ) -> (u64, u64) {
        let inst = self.inst();
        let g = &inst.graph;
        let n = inst.num_nodes();
        let j = st.idx;
        let mut resampled = 0u64;
        st.sampler = PreparedSampler::for_model(g, &inst.model(j));
        st.sampler.set_thread_cap(threads);
        // A private selection stream is resampled in place first; a pool
        // tenant's group arena was repaired before the fan-out. Then the
        // index is rebuilt from the repaired sets, the old one dropped before
        // the new one is filled: the ad's θ-view of the group arena
        // (weighted for reweighted tenants), or the retained private arena.
        // Ingesting with the seed mask reproduces the incremental state: a
        // set is covered iff it contains one of the ad's seeds.
        if rr_pool.is_none_or(|p| p.mode(j) == TenantMode::Private) {
            resampled += st
                .sampler
                .resample_touched(g, st.sample_seed, &mut st.sel_sets, changed);
        }
        st.cov = self.selection_index(j, rr_pool);
        if !self.pooled_add_range(st, rr_pool, 0, st.theta) {
            st.cov.add_batch(&st.sel_sets, &st.is_seed);
        }
        // The validation stream (OnlineBounds) is always private.
        if let Some(op) = st.opim.as_mut() {
            resampled += st
                .sampler
                .resample_touched(g, op.val_seed, &mut st.val_sets, changed);
            op.val_cov = RrCoverage::new(n);
            op.val_cov.add_batch(&st.val_sets, &st.is_seed);
        }
        st.sampler.set_thread_cap(self.cfg.sampler_threads);
        st.candidate = None;
        st.exhausted = false;
        if matches!(
            self.kind,
            AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
        ) {
            st.pr_order = pr_orders.get(j).cloned().unwrap_or_default();
            st.pr_cursor = 0;
            st.set_heap(LazyGreedyHeap::default());
            (resampled, 0)
        } else {
            st.set_heap(self.build_heap(&st.cov, j, assigned));
            (resampled, n as u64)
        }
    }
}
