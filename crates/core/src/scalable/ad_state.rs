//! Per-advertiser state of the scalable engine.

use rm_graph::NodeId;
use rm_rrsets::{KptEstimator, LazyGreedyHeap, PreparedSampler, RrArena, RrCoverage, StoppingRule};

/// One round's candidate proposal for an ad — the per-round scratch split
/// out of the long-lived [`AdState`] so selection workers only exchange
/// this small value while the coverage index, heap and window stay
/// ad-local.
///
/// A candidate stays **cached** across rounds until a committed node lands
/// in the ad's inspected window ([`AdState::window_hit`]) or the ad itself
/// commits: nothing the selection read can have changed before then, so
/// re-running selection would reproduce it bit-for-bit (see
/// `engine::commit_round`). A hit on a window whose heap is drained keeps
/// it too, when the node is not the proposal
/// ([`AdState::absorb_window_hit`]).
pub(crate) struct Candidate {
    /// Proposed seed node.
    pub v: NodeId,
    /// Uncovered-set mass of `v` on the selection stream at proposal time
    /// (still current while the cache is valid — only the ad's own commits
    /// change its coverage index). A plain count for private/identical
    /// streams — exact, since counts stay far below 2^53 — and a weighted
    /// sum for reweighted pool tenants.
    pub cov: f64,
}

/// Everything the engine tracks for one advertiser.
pub(crate) struct AdState {
    /// Ad index.
    pub idx: usize,
    /// Prepared sampling tables for this ad's edge probabilities — gathered
    /// once, reused by every incremental growth batch.
    pub sampler: PreparedSampler,
    /// Coverage index over the ad's RR sample.
    pub cov: RrCoverage,
    /// Current sample size θ_j.
    pub theta: usize,
    /// Latent seed-set-size estimate `s̃_j` (Eq. 10).
    pub s_latent: usize,
    /// KPT* estimator with cached pilot widths.
    pub kpt: KptEstimator,
    /// Committed seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// Membership mask of `seeds` (for Algorithm 3's arrival-coverage test).
    pub is_seed: Vec<bool>,
    /// Total incentives paid so far, `c_j(S_j)`.
    pub cost_total: f64,
    /// Lazy candidate heap (CA: coverage key; CS full: ratio key;
    /// CS windowed: coverage key). Unused by the PageRank baselines.
    /// Replace it through [`AdState::set_heap`], which drops the window.
    pub heap: LazyGreedyHeap,
    /// The inspected window: the entries the last selection drew from
    /// `heap`, in draw order, each with the key it was drawn at — the
    /// top-`w` live nodes by the heap key (`w = 1` except for windowed
    /// CS). They stay held out of the heap across rounds, and the next
    /// selection repairs the window from them plus the heap top
    /// (`LazyGreedyHeap::pop_window`) instead of pushing them back and
    /// popping `w` afresh. Empty for the eager ablation and the PageRank
    /// cursors.
    pub window: Vec<(NodeId, f64)>,
    /// The buffer the next repair draws the window into: the repair
    /// leaves the held entries' buffer empty, and it becomes the spare.
    /// The two buffers swap roles, so repairs stop allocating once both
    /// hold a full window. A fresh window buffer per repair, allocated on
    /// the thread that commits and resizes the RR samples, fragmented
    /// its heap and kept tens of MB resident between runs.
    pub window_spare: Vec<(NodeId, f64)>,
    /// PageRank candidate order and cursor (baselines only).
    pub pr_order: Vec<NodeId>,
    pub pr_cursor: usize,
    /// True when the ad can take no further candidates.
    pub exhausted: bool,
    /// Cached candidate proposal, valid until a commit hits its window
    /// (and the window cannot absorb the hit).
    /// `None` for exhausted ads and for ads due a refresh this round.
    pub candidate: Option<Candidate>,
    /// Base seed of this ad's RR sampling stream.
    pub sample_seed: u64,
    /// RR sets sampled for this ad (including growth batches and, under
    /// [`super::config::SamplingStrategy::OnlineBounds`], the validation
    /// stream).
    pub samples: u64,
    /// True if the θ cap was hit.
    pub capped: bool,
    /// Stopping-rule checks performed for this ad (OnlineBounds only).
    pub bound_checks: u64,
    /// Online-bounds state; `None` under the fixed-θ schedule.
    pub opim: Option<OpimAdState>,
    /// The ad's private selection-stream RR sets, retained verbatim when
    /// the engine runs resident (`EngineCtx::retain_sets`): a graph delta
    /// must locate and resample exactly the sets whose traces touch changed
    /// edges, and the coverage index alone cannot be enumerated. Empty for
    /// batch runs (the one-shot path never repairs) and for pooled ads
    /// (the shared pool arena is the retained store). Index `i` holds the
    /// set drawn at global sample index `i` of [`AdState::sample_seed`]'s
    /// stream, so per-set resampling replays the exact per-set RNG stream.
    pub sel_sets: RrArena,
    /// Same retention for the private validation stream (OnlineBounds).
    pub val_sets: RrArena,
}

/// Extra per-ad state of the online (OPIM-style) sampling mode.
pub(crate) struct OpimAdState {
    /// Validation-stream coverage index. It tracks the committed seed set
    /// (commits cover it) but **never drives candidate ranking**: the
    /// greedy heap and the marginals candidates are ordered by read the
    /// selection stream only. Its consumers are the stopping rule
    /// (achieved-coverage lower bound), [`AdState::pi`] (the engine's
    /// internal revenue estimate — free of the selection stream's
    /// winner's-curse bias, so budget accounting charges an unbiased π̂),
    /// and the engine's budget-feasibility gate (which must charge exactly
    /// what a commit will charge). The budget gate means commit *timing*
    /// is correlated with validation draws even though ranking is not —
    /// the concentration argument conditions on the committed prefix, the
    /// same idealization the fixed-θ machinery makes for its single
    /// selection-correlated stream (see DESIGN.md).
    pub val_cov: RrCoverage,
    /// Base seed of the validation RR stream (independent of
    /// [`AdState::sample_seed`] by stream derivation).
    pub val_seed: u64,
    /// Doubling cap: Eq. 8's worst-case θ for the current latent size.
    pub theta_cap: usize,
    /// The martingale stopping rule shared by every check of this ad.
    pub rule: StoppingRule,
}

impl AdState {
    /// True if committing `v` elsewhere hits this ad's cached proposal:
    /// the node is the proposal itself or sits in the window. A hit
    /// invalidates the proposal unless [`Self::absorb_window_hit`] keeps
    /// it.
    ///
    /// Deliberately a linear scan over cache-contiguous entries: the
    /// window changes at every repair, so a sorted or hashed membership
    /// structure would be rebuilt about as often as it is probed.
    pub fn window_hit(&self, v: NodeId) -> bool {
        self.candidate.as_ref().is_some_and(|c| c.v == v)
            || self.window.iter().any(|&(u, _)| u == v)
    }

    /// Absorbs another ad's commit of `v`, a node in this ad's window, when
    /// the cached proposal provably survives it: the heap is drained (the
    /// window already holds every live node, so nothing can refill it),
    /// `v` is not the proposal, and the window without `v` is still in pop
    /// order. The ad's coverage has not changed since the window was
    /// drawn, so a repair would return exactly the window minus `v`, and
    /// dropping a non-proposal entry cannot change the last maximal ratio.
    /// Then `v` leaves the window and this returns true; otherwise the
    /// window is left as it was.
    pub fn absorb_window_hit(&mut self, v: NodeId) -> bool {
        if !self.heap.is_empty() || self.candidate.as_ref().is_none_or(|c| c.v == v) {
            return false;
        }
        let Some(pos) = self.window.iter().position(|&(u, _)| u == v) else {
            return false;
        };
        let entry = self.window.remove(pos);
        if LazyGreedyHeap::in_pop_order(&self.window) {
            return true;
        }
        self.window.insert(pos, entry);
        false
    }

    /// Installs a freshly built heap. The window's entries are dropped
    /// with the old heap (its buffer is kept): a rebuild holds every live
    /// node, so the next selection draws its window from the new heap
    /// alone.
    pub fn set_heap(&mut self, heap: LazyGreedyHeap) {
        self.heap = heap;
        self.window.clear();
    }

    /// Internal revenue estimate `π_j(S_j) = cpe · n · covered/θ`.
    ///
    /// Under OnlineBounds the covered count comes from the validation
    /// stream: seeds are *selected* on the other stream, so this count is
    /// free of the argmax selection bias that would otherwise overstate
    /// revenue (and exhaust budgets early) on the small samples the
    /// stopping rule certifies. Both streams share θ.
    ///
    /// For a reweighted pool tenant the fixed-θ selection stream is
    /// importance-weighted, so the covered mass is the weighted sum — the
    /// unbiased estimate under the tenant's own mixture. (The validation
    /// stream is always a private unit-weight sample, so the OnlineBounds
    /// arm needs no weighting here.)
    pub fn pi(&self, cpe: f64, n: usize) -> f64 {
        if self.theta == 0 {
            return 0.0;
        }
        let covered = match &self.opim {
            Some(op) => op.val_cov.covered(),
            None => self.cov.covered(),
        };
        cpe * n as f64 * covered / self.theta as f64
    }

    /// Marginal revenue of a candidate with `cov_v` uncovered mass.
    pub fn delta_pi(&self, cpe: f64, n: usize, cov_v: f64) -> f64 {
        if self.theta == 0 {
            return 0.0;
        }
        cpe * n as f64 * cov_v / self.theta as f64
    }

    /// Current payment `ρ_j(S_j)`.
    pub fn rho(&self, cpe: f64, n: usize) -> f64 {
        self.pi(cpe, n) + self.cost_total
    }
}
