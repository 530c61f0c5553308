//! Epoch lifecycle of the scalable engine: everything that sizes, samples
//! and resizes an ad's RR streams — pilot KPT estimation, the Eq. 8 fixed-θ
//! schedule, the OPIM-style online doubling loop, Eq. 10 latent-size
//! updates, and the shared-pool plumbing. The per-round selection machinery
//! (refresh–arbiter–fixup) lives in `engine.rs`; the long-lived service
//! wrapper in `resident.rs`. All three operate on the same read-only
//! [`EngineCtx`], so the batch and resident paths share one code path and
//! stay bit-identical.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use rm_graph::NodeId;
use rm_rrsets::{
    opim, stream_seed, KptEstimator, LazyGreedyHeap, PreparedSampler, RrArena, RrCoverage,
    SharedRrPool, StoppingRule, TenantMode, TimConfig,
};

use crate::instance::RmInstance;
use crate::metrics::RunStats;

use super::ad_state::{AdState, OpimAdState};
use super::config::{AlgorithmKind, SamplingStrategy, ScalableConfig};
use super::resident::InstHandle;

/// Floor on incentive costs when forming coverage-to-cost ratios, so
/// zero-incentive nodes (possible under sublinear pricing) do not produce
/// NaN/∞ keys.
pub(crate) const COST_FLOOR: f64 = 1e-9;
/// Budget-feasibility slack absorbing floating-point accumulation.
pub(crate) const BUDGET_EPS: f64 = 1e-9;

/// The read-only half of the engine: the instance handle, the algorithm
/// choice and the resolved configuration. Mutable run state (ad slots, the
/// assigned bitmap, counters) lives in `ResidentEngine`, which threads it
/// through these methods — keeping `&self` here lets the fan-out closures
/// capture the context without aliasing the per-ad state they mutate.
pub(crate) struct EngineCtx<'a> {
    pub(crate) inst: InstHandle<'a>,
    pub(crate) kind: AlgorithmKind,
    pub(crate) cfg: ScalableConfig,
    pub(crate) tim: TimConfig,
    /// Retain every privately sampled RR set verbatim in
    /// [`AdState::sel_sets`] / [`AdState::val_sets`]. On for the resident
    /// engine (graph-delta repair must enumerate and splice sets by id);
    /// off for the one-shot batch wrapper, which never repairs.
    pub(crate) retain_sets: bool,
}

impl<'a> EngineCtx<'a> {
    pub(crate) fn new(
        inst: InstHandle<'a>,
        kind: AlgorithmKind,
        cfg: ScalableConfig,
        retain_sets: bool,
    ) -> Self {
        let tim = TimConfig {
            epsilon: cfg.epsilon,
            ell: cfg.ell,
            max_sets_per_ad: cfg.max_sets_per_ad,
        };
        EngineCtx {
            inst,
            kind,
            cfg,
            tim,
            retain_sets,
        }
    }

    /// The current instance (borrowed for batch runs, owned and swappable
    /// under graph deltas for resident runs).
    #[inline]
    pub(crate) fn inst(&self) -> &RmInstance {
        self.inst.get()
    }

    /// Builds the shared cross-advertiser RR pool when
    /// [`ScalableConfig::rr_sharing`] is on: ads grouped by diffusion model
    /// in ad-index order (`rm_rrsets::pool`). `None` keeps every stream
    /// private — bit-identical to builds predating the pool.
    pub(crate) fn build_rr_pool(&self) -> Option<SharedRrPool> {
        if !self.cfg.rr_sharing {
            return None;
        }
        let inst = self.inst();
        let models: Vec<_> = (0..inst.num_ads()).map(|j| inst.model(j)).collect();
        Some(SharedRrPool::build(
            &inst.graph,
            &models,
            self.cfg.seed,
            self.cfg.sampler_threads,
        ))
    }

    /// Adds the shared pool's sets `lo..hi` to the ad's selection index —
    /// weighted ingestion for reweighted tenants, plain counts otherwise.
    /// Returns `false` when the ad is not pooled (no pool, or private
    /// fallback): the caller must sample privately.
    pub(crate) fn pooled_add_range(
        &self,
        st: &mut AdState,
        rr_pool: Option<&SharedRrPool>,
        lo: usize,
        hi: usize,
    ) -> bool {
        let Some(p) = rr_pool else { return false };
        let AdState {
            idx, cov, is_seed, ..
        } = st;
        p.with_range(&self.inst().graph, *idx, lo, hi, |arena, lo, hi, w| {
            match w {
                Some(w) => cov.add_range_weighted(arena, lo, hi, is_seed, w),
                None => cov.add_range(arena, lo, hi, is_seed),
            };
        })
        .is_some()
    }

    /// Lines 1–4 for the given ads: pilot KPT estimation, initial θ and
    /// sample, heaps/orders. Batch runs pass every ad id; arrivals pass
    /// only the newcomers — per-ad seeds are pure functions of
    /// `(cfg.seed, ad id)`, so an ad initialized on arrival is bit-identical
    /// to the same ad initialized in a batch.
    ///
    /// Each ad's pilot + initial sample is independent of every other ad's,
    /// so the initializations fan out across scoped worker threads pulling
    /// job indices from a shared counter. The worker count is bounded by the
    /// core count — not the ad count — so a wide campaign cannot
    /// oversubscribe the machine or hold every ad's transient sampling
    /// tables live at once. Results are keyed by job position, so the output
    /// (and every downstream tie-break) is deterministic regardless of
    /// scheduling.
    pub(crate) fn init_ads(
        &self,
        ids: &[usize],
        pr_orders: &[Vec<NodeId>],
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
    ) -> Vec<AdState> {
        let m = ids.len();
        let pr = |j: usize| pr_orders.get(j).cloned().unwrap_or_default();
        let cores = available_cores();
        let workers = cores.min(m).max(1);
        // Split the thread budget between the two fan-out layers: `workers`
        // ad initializations in flight, each allowed `cores / workers`
        // sampler threads, so the product stays at the core count.
        let inner_threads = (cores / workers).max(1).min(self.cfg.sampler_threads);
        par_map_ordered(ids.to_vec(), workers, |j| {
            self.init_ad(j, pr(j), inner_threads, assigned, rr_pool)
        })
    }

    /// Initializes one ad's state (KPT pilot, θ, initial RR sample, heap).
    ///
    /// Per-ad seeds are derived by chained mixing ([`stream_seed`]) rather
    /// than xor-ing a shifted ad index into the master seed: xor composition
    /// made ad `j`'s set `i` share its RNG stream with ad `j'`'s set
    /// `i ^ ((j ^ j') << 20)`, duplicating RR sets across advertisers once
    /// samples grew past the shift.
    fn init_ad(
        &self,
        j: usize,
        pr_order: Vec<NodeId>,
        threads: usize,
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
    ) -> AdState {
        let inst = self.inst();
        let tim = &self.tim;
        let n = inst.num_nodes();
        let g = &inst.graph;
        // Model-generic sampling: the prepared tables are IC acceptance
        // thresholds or LT alias tables depending on the instance's model.
        // Pooled ads keep a private sampler too — the OnlineBounds
        // validation stream is never shared, and the fallback paths need it.
        let mut sampler = PreparedSampler::for_model(g, &inst.model(j));
        sampler.set_thread_cap(threads);
        let pool_mode = rr_pool.map_or(TenantMode::Private, |p| p.mode(j));
        let kpt_seed = stream_seed(self.cfg.seed ^ 0x4B50_7E57, j as u64);
        // One KPT pilot serves both strategies: Eq. 8's θ is the fixed-θ
        // sample size and the online mode's doubling cap. Identical pool
        // tenants share their group's cached pilot (one pilot per model);
        // reweighted tenants pilot privately — their spread differs from the
        // reference's, so the OPT lower bound must come from their own model.
        let kpt = if pool_mode == TenantMode::Identical {
            rr_pool
                .and_then(|p| p.kpt(g, j, 1, tim))
                // INVARIANT: `mode` just classified this ad Identical, and
                // the pool serves a pilot for every identical tenant.
                .expect("identical tenants have a pooled pilot")
        } else {
            KptEstimator::estimate_with_sampler(g, &sampler, 1, tim, kpt_seed)
        };
        let s_latent = 1usize;
        let theta_full = kpt.theta_for(n, s_latent, tim);
        let capped = theta_full >= tim.max_sets_per_ad
            && matches!(self.cfg.sampling, SamplingStrategy::FixedTheta);
        let (theta, op) = match self.cfg.sampling {
            SamplingStrategy::FixedTheta => (theta_full, None),
            SamplingStrategy::OnlineBounds => {
                // The per-ad valve bounds *total* sets; with two streams
                // each may use at most half, so OnlineBounds never draws
                // more than `max_sets_per_ad` sets even when the rule
                // never certifies.
                let theta_cap = theta_full.min(self.online_stream_valve(tim));
                (
                    opim::initial_theta(theta_cap),
                    Some(OpimAdState {
                        val_cov: RrCoverage::new(n),
                        val_seed: stream_seed(self.cfg.seed ^ 0x0B5E_55ED, j as u64),
                        theta_cap,
                        // On tiny graphs Eq. 8's cap can undercut the
                        // rule's default pilot gate; the floor clamps the
                        // gate so the rule can certify at the cap instead
                        // of spinning doubling steps that cannot happen.
                        rule: StoppingRule::new(n, self.cfg.epsilon, self.cfg.ell)
                            .with_pilot_floor(theta_cap),
                    }),
                )
            }
        };
        let mut st = AdState {
            idx: j,
            sampler,
            cov: self.selection_index(j, rr_pool),
            theta: 0,
            s_latent,
            kpt,
            seeds: Vec::new(),
            is_seed: vec![false; n],
            cost_total: 0.0,
            heap: LazyGreedyHeap::default(),
            window: Vec::new(),
            window_spare: Vec::new(),
            pr_order,
            pr_cursor: 0,
            exhausted: false,
            candidate: None,
            sample_seed: stream_seed(self.cfg.seed ^ 0x005A_3D17, j as u64),
            samples: 0,
            capped,
            bound_checks: 0,
            opim: op,
            sel_sets: RrArena::new(),
            val_sets: RrArena::new(),
        };
        self.grow_selection(&mut st, rr_pool, theta);
        self.grow_validation(&mut st, theta);
        st.theta = theta;
        // OnlineBounds: double from the pilot until the stopping rule
        // certifies the initial latent size (or the Eq. 8 cap is reached).
        // `assigned` reflects seeds committed before this ad arrived (all
        // false in a batch run), so the residual bounds never credit nodes
        // the ad cannot take.
        if st.opim.is_some() {
            self.certify_or_double(&mut st, assigned, rr_pool);
        }
        // Growth batches run one ad at a time: restore the configured cap.
        st.sampler.set_thread_cap(self.cfg.sampler_threads);
        st.set_heap(self.build_heap(&st.cov, j, assigned));
        st
    }

    /// The online-bounds growth loop: evaluates the stopping rule at the
    /// current sample and doubles **both** RR streams until it certifies
    /// `LB/UB ≥ 1 − 1/e − ε` for the ad's current latent size, or the
    /// doubling cap — Eq. 8's worst case, clamped to the per-stream valve —
    /// is reached (at Eq. 8's θ the fixed-θ guarantee applies regardless).
    /// Returns `true` if the sample grew.
    ///
    /// Each check clones the selection index once (greedy extension) and
    /// the validation index once (extension counts). Checks happen a
    /// handful of times per latent-size epoch and the indexes compact as
    /// seeds commit, so this is far below the sampling cost it avoids —
    /// the ablation's wall-clock numbers include it.
    ///
    /// The rule certifies the **residual** problem at the latent size `s`:
    /// with `|S|` seeds committed and `k = s − |S|` more allowed, the
    /// coverage gain beyond `S` is itself monotone submodular, so the
    /// greedy `k`-extension on the selection stream is `(1 − 1/e)`-optimal
    /// for it. The achieved side lower-bounds that extension's gain on the
    /// *validation* stream; the OPT side upper-bounds the best residual
    /// gain on the *selection* stream by the smallest of three observable
    /// bounds (top-`k` marginal sum, extension gain + post-extension
    /// top-`k`, and the greedy `(1 − 1/e)` bound). A provably negligible
    /// residual — at most ε times the validated achieved coverage —
    /// certifies too (further precision is inside Eq. 8's additive slack).
    pub(crate) fn certify_or_double(
        &self,
        st: &mut AdState,
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
    ) -> bool {
        let tim = &self.tim;
        let mut grew = false;
        loop {
            let op = st
                .opim
                // INVARIANT: callers gate on SamplingStrategy::OnlineBounds,
                // whose init path constructs opim state for every ad.
                .as_ref()
                .expect("certify_or_double requires opim state");
            let s = st.s_latent.max(1);
            let k = s.saturating_sub(st.seeds.len()).max(1);
            // Greedy residual extension on the selection stream. Assigned
            // nodes are out for both sides: the residual optimum is over
            // the nodes this ad could still pick.
            // Weighted accessors so reweighted pool tenants bound their
            // *importance mass* — for unit-weight indexes they return the
            // exact f64 image of the counts (< 2^53), so the f64 min-chain
            // below is bit-identical to the former u64 arithmetic.
            let ext = st.cov.greedy_extension(k, k, |v| assigned[v as usize]);
            let ext_gain = ext.covered_weight - st.cov.covered_weight();
            let top_k = st.cov.top_k_weight(k, |v| assigned[v as usize]);
            let greedy_ub = ext_gain / (1.0 - (-1.0f64).exp());
            let residual_ub = top_k.min(ext_gain + ext.residual_top_weight).min(greedy_ub);
            // Validation-stream counts: the index already tracks the
            // committed set, so only the extension is applied on a scratch
            // clone. `achieved` includes the committed coverage.
            let (achieved, gain) = op.val_cov.coverage_split(&[], &ext.picks);
            st.bound_checks += 1;
            let check = op.rule.check(
                st.theta,
                st.bound_checks,
                achieved as f64,
                gain as f64,
                residual_ub,
            );
            if check.satisfied {
                return grew;
            }
            if st.theta >= op.theta_cap {
                // Doubling budget exhausted without certifying. Reaching
                // Eq. 8's θ keeps the worst-case guarantee; being stopped
                // short of it by the per-ad resource valve degrades the
                // estimates and is reported like the fixed-θ cap.
                if op.theta_cap < st.kpt.theta_for(self.inst().num_nodes(), s, tim) {
                    st.capped = true;
                }
                return grew;
            }
            // Grow both streams to the next doubling step.
            let target = opim::next_theta(st.theta, op.theta_cap);
            self.grow_selection(st, rr_pool, target);
            self.grow_validation(st, target);
            st.theta = target;
            grew = true;
        }
    }

    /// An empty selection index for ad `j`: weighted for reweighted pool
    /// tenants (the index accumulates the importance mass), plain counts
    /// otherwise.
    pub(crate) fn selection_index(&self, j: usize, rr_pool: Option<&SharedRrPool>) -> RrCoverage {
        let n = self.inst().num_nodes();
        match rr_pool.map_or(TenantMode::Private, |p| p.mode(j)) {
            TenantMode::Reweighted => RrCoverage::new_weighted(n),
            TenantMode::Identical | TenantMode::Private => RrCoverage::new(n),
        }
    }

    /// Grows the ad's selection stream from θ to `target` sets. Pooled ads
    /// extend their view of the shared arena, whose sets the pool counts
    /// once; private ads sample their own stream, count it in `samples`,
    /// and retain it when the engine runs resident (an empty retained
    /// arena takes the batch by move).
    fn grow_selection(&self, st: &mut AdState, rr_pool: Option<&SharedRrPool>, target: usize) {
        if self.pooled_add_range(st, rr_pool, st.theta, target) {
            return;
        }
        let g = &self.inst().graph;
        let (sets, _) =
            st.sampler
                .sample_batch(g, target - st.theta, st.sample_seed, st.theta as u64);
        st.cov.add_batch(&sets, &st.is_seed);
        st.samples += (target - st.theta) as u64;
        if self.retain_sets {
            retain(&mut st.sel_sets, sets);
        }
    }

    /// Grows the ad's validation stream (OnlineBounds; a no-op under the
    /// fixed-θ schedule) from θ to `target` sets. It is always a private
    /// unit-weight sample: the stopping rule's unbiasedness argument needs
    /// draws independent of the selection stream every other tenant shares.
    fn grow_validation(&self, st: &mut AdState, target: usize) {
        let Some(op) = st.opim.as_mut() else { return };
        let g = &self.inst().graph;
        let (sets, _) = st
            .sampler
            .sample_batch(g, target - st.theta, op.val_seed, st.theta as u64);
        op.val_cov.add_batch(&sets, &st.is_seed);
        st.samples += (target - st.theta) as u64;
        if self.retain_sets {
            retain(&mut st.val_sets, sets);
        }
    }

    /// Per-stream doubling valve of the online mode: `max_sets_per_ad`
    /// bounds the **total** RR sets an ad may hold, so each of the two
    /// streams gets half.
    pub(crate) fn online_stream_valve(&self, tim: &TimConfig) -> usize {
        (tim.max_sets_per_ad / 2).max(1)
    }

    /// Lines 17–22: Eq. 10 latent-size update, sample growth, Algorithm 3
    /// estimate refresh, heap rebuild.
    pub(crate) fn update_latent(
        &self,
        st: &mut AdState,
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
        stats: &mut RunStats,
    ) {
        let inst = self.inst();
        let tim = &self.tim;
        let n = inst.num_nodes();
        let ad = &inst.ads[st.idx];
        let rho = st.rho(ad.cpe, n);
        let headroom = ad.budget - rho;
        let mut s_new = st.s_latent.max(st.seeds.len());
        if headroom > 0.0 && st.theta > 0 {
            // Weighted accessor: exact f64 image of the count for
            // unit-weight indexes, importance mass for reweighted tenants.
            let fmax = st.cov.max_coverage_weight(|v| assigned[v as usize]) / st.theta as f64;
            let denom = inst.incentives[st.idx].cmax() + ad.cpe * n as f64 * fmax;
            if denom > 0.0 {
                s_new += (headroom / denom).floor() as usize;
            }
        }
        if s_new <= st.s_latent {
            // No latent growth (Eq. 10 projects no further affordable
            // seeds). If the remaining headroom cannot cover even the
            // cheapest conceivable candidate — incentive at least c_min,
            // plus Δπ ≥ cpe·n/θ for the coverage-driven algorithms, whose
            // candidates always have coverage ≥ 1 — every future proposal
            // is infeasible (ρ only grows between sample updates), so retire
            // the ad instead of re-evaluating a doomed candidate each round.
            let min_dpi = match self.kind {
                // Under OnlineBounds the commit charge is the candidate's
                // *validation*-stream marginal, which can be zero even for
                // a positive-coverage selection candidate — so only the
                // incentive floor is certain. A reweighted pool tenant's
                // weighted marginal can likewise be arbitrarily small (one
                // covered set of tiny importance weight), so the
                // one-set-per-candidate Δπ floor only holds for unit-weight
                // indexes.
                AlgorithmKind::TiCarm | AlgorithmKind::TiCsrm
                    if matches!(self.cfg.sampling, SamplingStrategy::FixedTheta)
                        && !st.cov.is_weighted() =>
                {
                    ad.cpe * n as f64 / st.theta.max(1) as f64
                }
                // PageRank candidates may have zero coverage, hence zero Δπ.
                _ => 0.0,
            };
            // Same BUDGET_EPS slack as `choose_winner`'s feasibility test,
            // so a boundary candidate the selection rule would accept is
            // never retired away.
            if headroom + BUDGET_EPS < inst.incentives[st.idx].cmin() + min_dpi {
                st.exhausted = true;
                stats.budget_exhausted_ads += 1;
            }
            return;
        }
        st.s_latent = s_new;
        match self.cfg.sampling {
            SamplingStrategy::FixedTheta => {
                // Worst-case schedule: jump straight to Eq. 8's θ for the
                // new latent size.
                let theta_new = st.kpt.theta_for(n, st.s_latent, tim).max(st.theta);
                if theta_new >= tim.max_sets_per_ad {
                    st.capped = true;
                }
                if theta_new > st.theta {
                    self.grow_selection(st, rr_pool, theta_new);
                    st.theta = theta_new;
                    // Coverage counts grew: lazy-heap invariant (keys only
                    // decrease) is broken, rebuild from scratch.
                    st.set_heap(self.build_heap(&st.cov, st.idx, assigned));
                    stats.candidate_evaluations += n as u64;
                }
            }
            SamplingStrategy::OnlineBounds => {
                // Online schedule: raise the doubling cap to the new latent
                // size's worst case (within the per-stream valve), then
                // grow only until the stopping rule certifies — the bound
                // check, not Eq. 8, decides θ.
                let cap = st
                    .kpt
                    .theta_for(n, st.s_latent, tim)
                    .min(self.online_stream_valve(tim));
                // INVARIANT: init_ads builds opim state whenever the
                // strategy is OnlineBounds, the only path reaching here.
                let op = st.opim.as_mut().expect("OnlineBounds ads carry opim state");
                op.theta_cap = op.theta_cap.max(cap);
                if self.certify_or_double(st, assigned, rr_pool) {
                    st.set_heap(self.build_heap(&st.cov, st.idx, assigned));
                    stats.candidate_evaluations += n as u64;
                }
            }
        }
    }
}

/// Appends a freshly sampled batch to a retained stream, moving it in
/// when the stream is still empty.
fn retain(stream: &mut RrArena, sets: RrArena) {
    if stream.is_empty() {
        *stream = sets;
    } else {
        stream.append(&sets);
    }
}

/// Hardware parallelism (1 when unknown).
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `workers` scoped threads that pull jobs
/// from a shared queue. Results are keyed by job position, so the output
/// order — and every downstream tie-break or sum — is deterministic
/// regardless of scheduling. `workers <= 1` runs inline.
pub(crate) fn par_map_ordered<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let m = items.len();
    if workers <= 1 || m <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..m).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(m))
            .map(|_| {
                let (queue, slots, f) = (&queue, &slots, &f);
                scope.spawn(move || loop {
                    // INVARIANT: poisoning implies a sibling panicked —
                    // propagate rather than run on partial state.
                    let next = queue.lock().expect("job queue poisoned").next();
                    let Some((k, job)) = next else { break };
                    let out = f(job);
                    // INVARIANT: as above, poisoning implies a panic.
                    *slots[k].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        for handle in handles {
            // INVARIANT: a worker panic is unrecoverable corruption of the
            // fan-out; propagating is the only sound response.
            handle.join().expect("fan-out worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // INVARIANT: every job was run before the joins above returned;
            // None/poison implies a worker panic.
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("fan-out worker skipped a job")
        })
        .collect()
}

/// Terminal Table-3 accounting for one ad: the resident RR bytes its
/// indexes would hold once compacted, read without rebuilding anything
/// (sets covered by seeds committed since the last growth batch still hold
/// storage, but are not counted). Each component is counted exactly once:
/// the selection index, the ad's sampling tables, and (OnlineBounds) the
/// validation index. Cross-ad state is excluded — the shared TIC per-topic
/// table and the shared RR pool's arenas are each added once per run by
/// the caller, never per ad. Retained raw set arenas (`sel_sets`/`val_sets`)
/// are resident-service working state, not part of the paper's Table-3
/// footprint, and are excluded.
pub(crate) fn terminal_ad_bytes(st: &AdState) -> usize {
    let mut bytes = st.cov.compacted_memory_bytes() + st.sampler.memory_bytes();
    if let Some(op) = &st.opim {
        bytes += op.val_cov.compacted_memory_bytes();
    }
    bytes
}
