//! The scalable greedy round core (Algorithm 2) shared by TI-CARM, TI-CSRM
//! and the PageRank baselines — plus [`TiEngine`], the one-shot batch entry
//! point, now a thin wrapper over the resident engine (`resident.rs`).
//!
//! The round loop runs in three phases (see DESIGN.md → "Parallel selection
//! rounds"):
//!
//! 1. **Refresh** — candidate evaluation (`select_candidate`: window
//!    repair against the lazy heap, eager fallback) for every live ad
//!    whose cached proposal a previous commit invalidated, one job per ad
//!    through `rm_graph::par` against an immutable snapshot of the
//!    `assigned` bitmap. Unaffected ads keep their cached proposal:
//!    nothing the selection read has changed, so re-running it would
//!    reproduce the proposal bit-for-bit.
//! 2. **Arbitrate** — a sequential arbiter picks the winning (ad, node)
//!    pair exactly as the sequential engine did (same iteration order,
//!    same tie-breaking), so winners are bit-identical for every worker
//!    count.
//! 3. **Fix up** — the winner's commit (seed bookkeeping, coverage update,
//!    `update_latent`/`certify_or_double` resampling). Contended ads only
//!    drop their proposal: each ad's inspected window persists across
//!    rounds, and the next refresh repairs it from the held entries plus
//!    the heap top, so a commit costs what it changed rather than a
//!    `w`-entry round trip through the heap. A contended ad whose heap is
//!    drained keeps its proposal unless the commit took it: its window
//!    just drops the node.
//!
//! The sampling/θ lifecycle (pilot estimation, Eq. 8/OPIM growth, Eq. 10
//! latent updates) lives in `epoch.rs`; both halves are methods on the
//! shared read-only [`EngineCtx`]. Ads live in `Option` slots indexed by
//! stable ad id — `None` marks an advertiser not currently admitted (the
//! resident engine's departures) and every loop below skips it.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

// Telemetry only: wall_ms never influences selection. rm-lint: allow(wallclock-in-results)
use std::time::Instant;

use rm_graph::par::{available_cores, par_map_ordered};
use rm_graph::NodeId;
use rm_rrsets::{LazyGreedyHeap, RrCoverage, SharedRrPool};

use crate::allocation::SeedAllocation;
use crate::instance::RmInstance;
use crate::metrics::RunStats;

use super::ad_state::{AdState, Candidate};
use super::config::{AlgorithmKind, ScalableConfig, ScalableConfigError, Window};
use super::epoch::{EngineCtx, BUDGET_EPS, COST_FLOOR};
use super::resident::ResidentEngine;

/// The one-shot batch engine. Construct once per run; [`TiEngine::run`] is
/// deterministic in `config.seed`. Internally it builds a
/// [`ResidentEngine`], admits every advertiser at once and runs to
/// convergence — per-ad RNG streams are pure functions of
/// `(config.seed, ad id)`, so the wrapper is bit-identical to the former
/// monolithic batch loop.
pub struct TiEngine<'a> {
    inst: &'a RmInstance,
    kind: AlgorithmKind,
    cfg: ScalableConfig,
}

impl<'a> TiEngine<'a> {
    /// Binds an algorithm to an instance.
    ///
    /// # Panics
    /// On an invalid configuration (see [`ScalableConfig::validate`]); use
    /// [`TiEngine::try_new`] to handle the error.
    pub fn new(inst: &'a RmInstance, kind: AlgorithmKind, cfg: ScalableConfig) -> Self {
        // INVARIANT: validated — the expect is the documented panic path.
        Self::try_new(inst, kind, cfg).expect("invalid ScalableConfig")
    }

    /// Binds an algorithm to an instance, rejecting invalid configurations
    /// with a typed error.
    pub fn try_new(
        inst: &'a RmInstance,
        kind: AlgorithmKind,
        cfg: ScalableConfig,
    ) -> Result<Self, ScalableConfigError> {
        cfg.validate()?;
        Ok(TiEngine { inst, kind, cfg })
    }

    /// Runs the algorithm to termination, returning the allocation and run
    /// statistics.
    pub fn run(&self) -> (SeedAllocation, RunStats) {
        // Telemetry only (RunStats::elapsed). rm-lint: allow(wallclock-in-results)
        let start = Instant::now();
        let mut eng = ResidentEngine::for_batch(self.inst, self.kind, self.cfg);
        let ids: Vec<usize> = (0..self.inst.num_ads()).collect();
        // INVARIANT: fresh engine, in-range ids — admission cannot fail.
        eng.add_advertisers(&ids)
            .expect("batch admission of fresh ads cannot fail");
        let (alloc, mut stats) = eng.finish();
        stats.elapsed = start.elapsed();
        (alloc, stats)
    }
}

impl EngineCtx<'_> {
    /// Phase 1 of a round: (re-)evaluates the candidate of every live ad
    /// that lacks one — the ads whose proposal the previous commit
    /// invalidated, plus everyone on the first round — one job per ad
    /// ([`par_map_ordered`]) against the immutable `assigned` snapshot. An
    /// ad with no remaining candidate is retired exactly as in the
    /// sequential loop. Each job returns its evaluation count, and the
    /// counts are summed in ad order, so the totals are the same at every
    /// worker count.
    pub(crate) fn refresh_candidates(
        &self,
        ads: &mut [Option<AdState>],
        assigned: &[bool],
        pool: &SelectionPolicy,
        stats: &mut RunStats,
    ) {
        let jobs: Vec<&mut AdState> = ads
            .iter_mut()
            .flatten()
            .filter(|st| !st.exhausted && st.candidate.is_none())
            .collect();
        let threads = pool.threads_for(jobs.len(), self.selection_job_cost());
        stats.candidate_refreshes += jobs.len() as u64;
        let evaluations = par_map_ordered(jobs, threads, |st| {
            let (candidate, evaluations) = self.select_candidate(st, assigned);
            st.exhausted = candidate.is_none();
            st.candidate = candidate;
            evaluations
        });
        stats.candidate_evaluations += evaluations.iter().sum::<u64>();
    }

    /// Phase 3 of a round: the winner commits (seed bookkeeping, coverage
    /// update, validation stream, Eq. 10 latent-size update with
    /// `certify_or_double`/fixed-θ resampling); every other ad whose window
    /// the committed node hit drops its proposal, keeping the window held
    /// for the refresh next round to repair — unless its heap is drained
    /// and the node is not its proposal, when the window just drops the
    /// node and the proposal stands ([`AdState::absorb_window_hit`]).
    /// Unaffected ads are not touched at all — their cached proposal and
    /// window stay exactly as they were.
    pub(crate) fn commit_round(
        &self,
        ads: &mut [Option<AdState>],
        winner: usize,
        v: NodeId,
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
        stats: &mut RunStats,
    ) {
        let cacheable = self.cacheable();
        let mut invalidated = 0u64;
        for st in ads.iter_mut().flatten() {
            if st.idx == winner || st.candidate.is_none() {
                continue;
            }
            let hit = st.window_hit(v);
            if hit {
                invalidated += 1;
                if cacheable && st.absorb_window_hit(v) {
                    continue;
                }
            }
            if hit || !cacheable {
                st.candidate = None;
                if !cacheable {
                    restore_window(st);
                }
            }
        }
        stats.invalidated_candidates += invalidated;
        if invalidated > 0 {
            stats.contended_rounds += 1;
        }
        // INVARIANT: the arbiter returns an active slot holding a candidate.
        let st = ads[winner].as_mut().expect("arbiter winner slot is active");
        self.commit_winner(st, v, assigned, rr_pool, stats);
    }

    /// Lines 10–14 and 17–22 for the winning ad.
    fn commit_winner(
        &self,
        st: &mut AdState,
        v: NodeId,
        assigned: &[bool],
        rr_pool: Option<&SharedRrPool>,
        stats: &mut RunStats,
    ) {
        st.candidate = None;
        self.retire_proposal(st, v);
        st.seeds.push(v);
        st.is_seed[v as usize] = true;
        st.cov.cover_with(v);
        // OnlineBounds: the validation stream tracks the committed set too —
        // it feeds the unbiased π̂ and the stopping rule's achieved count
        // (never selection).
        if let Some(op) = st.opim.as_mut() {
            op.val_cov.cover_with(v);
        }
        st.cost_total += self.inst().incentives[st.idx].cost(v);
        if matches!(
            self.kind,
            AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
        ) {
            st.pr_cursor += 1;
        }
        // Lines 17–22: latent seed-set-size update + sample growth (a heap
        // rebuild drops the window).
        if st.seeds.len() >= st.s_latent {
            self.update_latent(st, assigned, rr_pool, stats);
        }
    }

    /// Alg. 1 semantics for a round with no feasible winner: permanently
    /// discard every ad's current candidate and keep going.
    pub(crate) fn discard_candidates(&self, ads: &mut [Option<AdState>]) {
        for st in ads.iter_mut().flatten() {
            let Some(cand) = st.candidate.take() else {
                continue;
            };
            if matches!(
                self.kind,
                AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
            ) {
                st.pr_cursor += 1;
            } else {
                self.retire_proposal(st, cand.v);
            }
        }
    }

    /// Takes a committed or discarded proposal `v` out of its ad's window
    /// for good. The rest of the window stays held for the next repair —
    /// or, when proposals are not cached, goes back into the heap so the
    /// next selection draws afresh.
    fn retire_proposal(&self, st: &mut AdState, v: NodeId) {
        st.window.retain(|&(u, _)| u != v);
        if !self.cacheable() {
            restore_window(st);
        }
    }

    /// True when cached candidates survive rounds that do not touch their
    /// window. The lazy heap paths hold exactly the entries they inspected
    /// ([`AdState::window`]) and the PageRank cursors inspect a single
    /// node, so an unaffected proposal would re-derive bit-identically.
    /// The eager-scan ablation inspects *every* node without recording a
    /// window (under a windowed ratio the (w+1)-th coverage node can enter
    /// and win once a window member is assigned), so it re-evaluates every
    /// ad every round like the sequential engine.
    fn cacheable(&self) -> bool {
        #[cfg(test)]
        if self.cfg.refresh_all_rounds {
            return false;
        }
        self.cfg.lazy
            || matches!(
                self.kind,
                AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr
            )
    }

    /// Resolves the per-run selection fan-out policy. Auto mode
    /// (`selection_threads == usize::MAX`) caps at hardware parallelism and
    /// gates tiny rounds to run inline — spawning scoped workers for a
    /// handful of heap pops costs more than the pops. An explicit thread
    /// count is honored (even past the core count, up to the fan-out's
    /// worker cap, ungated), so tests exercise the parallel path
    /// deterministically on any machine.
    pub(crate) fn selection_policy(&self) -> SelectionPolicy {
        if self.cfg.selection_threads == usize::MAX {
            SelectionPolicy {
                cap: available_cores(),
                gated: true,
            }
        } else {
            SelectionPolicy {
                cap: self.cfg.selection_threads.max(1),
                gated: false,
            }
        }
    }

    /// Rough heap-operations-per-job estimate feeding the auto-mode spawn
    /// gate: a windowed CS repair re-validates up to `w` held entries, the
    /// eager ablation scans every node, and the other paths touch a
    /// handful of entries.
    fn selection_job_cost(&self) -> usize {
        if !self.cfg.lazy {
            return self.inst().num_nodes();
        }
        match self.selection_key() {
            None => 1,
            Some((KeyKind::WindowedRatio, w)) => w,
            Some(_) => 32,
        }
    }

    /// Builds (or rebuilds) an ad's candidate heap for the current sample.
    /// Keys read the uncovered mass: the set count on unit-weight indexes,
    /// the importance mass for reweighted tenants.
    pub(crate) fn build_heap(
        &self,
        cov: &RrCoverage,
        ad: usize,
        assigned: &[bool],
    ) -> LazyGreedyHeap {
        let Some((key, _)) = self.selection_key() else {
            return LazyGreedyHeap::default();
        };
        let inst = self.inst();
        let incent = &inst.incentives[ad];
        LazyGreedyHeap::build((0..inst.num_nodes() as NodeId).filter_map(|v| {
            let c = cov.coverage(v);
            (c > 0.0 && !assigned[v as usize])
                .then(|| (v, key.heap_key(c, || incent.cost(v).max(COST_FLOOR))))
        }))
    }

    /// The heap key and window width of the heap-based algorithms: Alg. 4
    /// (coverage, `w = 1`) and Alg. 5 (full window: ratio, `w = 1`;
    /// window `w`: coverage, best ratio among the top `w`). `None` for the
    /// PageRank cursors.
    fn selection_key(&self) -> Option<(KeyKind, usize)> {
        match self.kind {
            AlgorithmKind::PageRankGr | AlgorithmKind::PageRankRr => None,
            AlgorithmKind::TiCarm => Some((KeyKind::Coverage, 1)),
            AlgorithmKind::TiCsrm => Some(match self.cfg.window {
                Window::Full => (KeyKind::Ratio, 1),
                Window::Size(w) => (KeyKind::WindowedRatio, w.max(1)),
            }),
        }
    }

    /// Lines 7 (Alg. 4 / Alg. 5) or the baselines' PageRank cursor: the
    /// ad's proposal, with the candidate evaluations it took.
    fn select_candidate(&self, st: &mut AdState, assigned: &[bool]) -> (Option<Candidate>, u64) {
        let Some((key, w)) = self.selection_key() else {
            // Advance past assigned nodes permanently; stop at the first
            // unassigned node without consuming it.
            while st.pr_cursor < st.pr_order.len() {
                let v = st.pr_order[st.pr_cursor];
                if assigned[v as usize] {
                    st.pr_cursor += 1;
                    continue;
                }
                let cov = st.cov.coverage(v);
                return (Some(Candidate { v, cov }), 1);
            }
            return (None, 0);
        };
        if self.cfg.lazy {
            self.select_lazy(st, assigned, key, w)
        } else {
            self.select_eager(st, assigned, key, w)
        }
    }

    /// Lazy selection: repairs the ad's window — the top-`w` live nodes by
    /// heap key, in draw order — from the entries it holds plus the heap
    /// top, then proposes the window's best coverage-to-cost ratio, ties
    /// going to the last entry in draw order (`w = 1`: the single entry).
    /// On a fresh heap (empty window) this is `w` plain `pop_valid` draws.
    fn select_lazy(
        &self,
        st: &mut AdState,
        assigned: &[bool],
        key: KeyKind,
        w: usize,
    ) -> (Option<Candidate>, u64) {
        let incent = &self.inst().incentives[st.idx];
        let cost = |v: NodeId| incent.cost(v).max(COST_FLOOR);
        let AdState {
            cov,
            heap,
            window,
            window_spare,
            ..
        } = st;
        let cov: &RrCoverage = cov;
        let mut held = std::mem::replace(window, std::mem::take(window_spare));
        window.reserve_exact(w.min(heap.len() + held.len()));
        let evaluations = heap.pop_window(
            &mut held,
            w,
            |v| key.heap_key(cov.coverage(v), || cost(v)),
            |v| assigned[v as usize],
            window,
        ) as u64;
        *window_spare = held;
        let v = match key {
            KeyKind::WindowedRatio => window
                .iter()
                .map(|&(v, c)| (v, c / cost(v)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(v, _)| v),
            KeyKind::Coverage | KeyKind::Ratio => window.first().map(|&(v, _)| v),
        };
        let candidate = v.map(|v| Candidate {
            v,
            cov: cov.coverage(v),
        });
        (candidate, evaluations)
    }

    /// Eager (non-lazy) scan over every unassigned node — the ablation
    /// baseline quantifying what CELF-style laziness saves. It ranks and
    /// breaks ties exactly as the lazy path does on exact keys.
    fn select_eager(
        &self,
        st: &mut AdState,
        assigned: &[bool],
        key: KeyKind,
        w: usize,
    ) -> (Option<Candidate>, u64) {
        let inst = self.inst();
        let n = inst.num_nodes();
        let incent = &inst.incentives[st.idx];
        let cost = |v: NodeId| incent.cost(v).max(COST_FLOOR);
        // Live nodes with their coverage.
        let live = (0..n as NodeId)
            .filter(|&v| !assigned[v as usize])
            .map(|v| (v, st.cov.coverage(v)))
            .filter(|&(_, c)| c > 0.0);
        let v = match key {
            KeyKind::Coverage | KeyKind::Ratio => {
                // First node (lowest id) with the greatest key: the lazy
                // heap's (key desc, node asc) order.
                let mut best: Option<(NodeId, f64)> = None;
                for (v, c) in live {
                    let k = key.heap_key(c, || cost(v));
                    if best.is_none_or(|(_, bk)| k > bk) {
                        best = Some((v, k));
                    }
                }
                best.map(|(v, _)| v)
            }
            KeyKind::WindowedRatio => {
                // The lazy window: top-w by (coverage desc, node asc), in
                // that order, then the best ratio with ties going to the
                // last entry. The f64 comparator orders exact integer
                // images identically to the former u32 sort; weighted
                // masses are finite by construction, so the partial order
                // is total here.
                let order = |a: &(NodeId, f64), b: &(NodeId, f64)| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                };
                let mut top: Vec<(NodeId, f64)> = live.collect();
                let w = w.min(top.len());
                if let Some(last) = w.checked_sub(1) {
                    top.select_nth_unstable_by(last, order);
                }
                top.truncate(w);
                top.sort_unstable_by(order);
                top.into_iter()
                    .map(|(v, c)| (v, c / cost(v)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(v, _)| v)
            }
        };
        let candidate = v.map(|v| Candidate {
            v,
            cov: st.cov.coverage(v),
        });
        (candidate, n as u64)
    }

    /// Line 9's global choice over the ads' current (possibly cached)
    /// candidates. Returns the winning ad index. Feasibility is evaluated
    /// fresh every round — budgets and π̂ move only when an ad itself
    /// commits, so a cached candidate's feasibility test reads exactly the
    /// state the sequential engine would have read. Empty slots (departed
    /// or not-yet-admitted ads) are skipped; slot index == ad id.
    pub(crate) fn choose_winner(
        &self,
        ads: &[Option<AdState>],
        rr_cursor: usize,
        n: usize,
    ) -> Option<usize> {
        let inst = self.inst();
        let h = ads.len();
        let feasible = |j: usize, st: &AdState, cand: &Candidate| -> Option<(f64, f64)> {
            let ad = &inst.ads[j];
            let d_pi = st.delta_pi(ad.cpe, n, cand.cov);
            let cost = inst.incentives[j].cost(cand.v);
            let d_rho = d_pi + cost;
            // The budget test must charge exactly what a commit will
            // charge. Under OnlineBounds π̂ reads the validation stream,
            // so the candidate's increment there (its uncovered-set count
            // on that stream) is the true post-commit charge; using the
            // selection-stream marginal here could let sampling noise push
            // ρ past the budget on commit. Ranking still uses the
            // selection-stream `d_pi`/`d_rho`.
            let d_pi_commit = match &st.opim {
                Some(op) => st.delta_pi(ad.cpe, n, op.val_cov.coverage(cand.v)),
                None => d_pi,
            };
            let rho_now = st.rho(ad.cpe, n);
            (rho_now + d_pi_commit + cost <= ad.budget + BUDGET_EPS).then_some((d_pi, d_rho))
        };
        match self.kind {
            AlgorithmKind::PageRankRr => {
                for off in 0..h {
                    let j = (rr_cursor + off) % h;
                    let Some(st) = &ads[j] else { continue };
                    if let Some(cand) = &st.candidate {
                        if feasible(j, st, cand).is_some() {
                            return Some(j);
                        }
                    }
                }
                None
            }
            AlgorithmKind::TiCarm | AlgorithmKind::PageRankGr => {
                let mut best: Option<(usize, f64)> = None;
                for (j, st) in ads.iter().enumerate() {
                    let Some(st) = st else { continue };
                    let Some(cand) = &st.candidate else { continue };
                    if let Some((d_pi, _)) = feasible(j, st, cand) {
                        if best.is_none_or(|(_, s)| d_pi > s) {
                            best = Some((j, d_pi));
                        }
                    }
                }
                best.map(|(j, _)| j)
            }
            AlgorithmKind::TiCsrm => {
                let mut best: Option<(usize, f64)> = None;
                for (j, st) in ads.iter().enumerate() {
                    let Some(st) = st else { continue };
                    let Some(cand) = &st.candidate else { continue };
                    if let Some((d_pi, d_rho)) = feasible(j, st, cand) {
                        let ratio = if d_rho <= 0.0 { 0.0 } else { d_pi / d_rho };
                        if best.is_none_or(|(_, s)| ratio > s) {
                            best = Some((j, ratio));
                        }
                    }
                }
                best.map(|(j, _)| j)
            }
        }
    }
}

/// Per-run selection fan-out policy (see [`EngineCtx::selection_policy`]).
pub(crate) struct SelectionPolicy {
    /// Worker cap: hardware parallelism in auto mode, or the explicit
    /// `selection_threads` value.
    cap: usize,
    /// True in auto mode: rounds whose estimated work is below
    /// [`SPAWN_WORK_GATE`] run inline instead of spawning.
    gated: bool,
}

/// Estimated heap operations below which an auto-mode round runs inline:
/// two scoped spawn/joins cost on the order of tens of microseconds,
/// comparable to a few thousand heap operations.
const SPAWN_WORK_GATE: usize = 8192;

impl SelectionPolicy {
    /// Worker count for a fan-out over `jobs` tasks of about `job_cost`
    /// heap operations each.
    fn threads_for(&self, jobs: usize, job_cost: usize) -> usize {
        let cap = self.cap.min(jobs);
        if cap <= 1 {
            return 1;
        }
        if self.gated && jobs.saturating_mul(job_cost) < SPAWN_WORK_GATE {
            return 1;
        }
        cap
    }
}

/// Returns an ad's held window to its heap, so the next selection draws
/// the window afresh — the uncached path (eager ablation, whose window is
/// empty, and the refresh-every-round test oracle).
fn restore_window(st: &mut AdState) {
    for (v, key) in st.window.drain(..) {
        st.heap.push(v, key);
    }
}

/// What an ad's lazy heap is keyed by.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    /// Coverage (TI-CARM).
    Coverage,
    /// Coverage-to-cost ratio (full-window TI-CSRM).
    Ratio,
    /// Coverage; the proposal is the best ratio among the top `w`
    /// (windowed TI-CSRM).
    WindowedRatio,
}

impl KeyKind {
    /// Heap key of a node with coverage `c` and floored cost `cost()`
    /// (read only by the ratio key).
    fn heap_key(self, c: f64, cost: impl FnOnce() -> f64) -> f64 {
        match self {
            KeyKind::Ratio => c / cost(),
            KeyKind::Coverage | KeyKind::WindowedRatio => c,
        }
    }
}
