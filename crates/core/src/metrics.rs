//! Run statistics collected by the scalable algorithms: the raw material of
//! the paper's runtime (Fig. 4, Fig. 5) and memory (Table 3) results.

use std::time::Duration;

/// Statistics of one algorithm run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Greedy rounds executed (committed picks).
    pub rounds: usize,
    /// Seeds selected per ad.
    pub seeds_per_ad: Vec<usize>,
    /// Final θ (RR sets) per ad.
    pub theta_per_ad: Vec<usize>,
    /// Final latent seed-set-size estimate per ad.
    pub latent_size_per_ad: Vec<usize>,
    /// Internal revenue estimate per ad (the algorithm's own view;
    /// use [`crate::evaluate_allocation`] for unbiased scoring).
    pub revenue_per_ad: Vec<f64>,
    /// Seeding (incentive) cost per ad.
    pub seeding_cost_per_ad: Vec<f64>,
    /// Estimated resident bytes of all RR coverage indexes at termination.
    pub rr_memory_bytes: usize,
    /// Total RR sets sampled across ads (including pilot/KPT sampling).
    pub rr_sets_sampled: u64,
    /// True if any ad hit the configured RR-set cap (estimates may be
    /// degraded; reported, never silent).
    pub sample_capped: bool,
    /// Candidate evaluations performed (lazy-evaluation ablation metric):
    /// `n` per eager scan and per heap rebuild, one per PageRank
    /// proposal, and one per lazy-heap draw — each valid entry a selection
    /// draws from an ad's heap, plus one for a draw that finds it empty. A
    /// window repair counts only the draws it takes from the heap: held
    /// entries re-validated in place, or re-keyed after the ad's own
    /// commit, cost none. So a repair after another ad's commit counts the
    /// one refill draw, where redrawing the window counted about `w`.
    /// Deterministic and thread-count-invariant.
    pub candidate_evaluations: u64,
    /// Per-ad candidate refreshes: `select_candidate` invocations across
    /// rounds, a window repair counting as one. The sequential engine
    /// re-evaluated every live ad every round (`≈ rounds × h`); the
    /// snapshot/arbiter engine only refreshes ads whose cached proposal a
    /// commit invalidated, so this counter measures how many ads the round
    /// loop touches; [`Self::candidate_evaluations`] measures what each
    /// touch costs. Deterministic and thread-count-invariant.
    pub candidate_refreshes: u64,
    /// Rounds in which the committed node invalidated at least one other
    /// ad's cached candidate (the node sat in that ad's inspected window) —
    /// the cross-advertiser contention the parallel round structure must
    /// arbitrate. Deterministic and thread-count-invariant.
    pub contended_rounds: u64,
    /// Total non-winner window hits across rounds: commits of a node in
    /// another ad's inspected window. A hit forces one refresh — a window
    /// repair — next round, unless the ad's heap is drained and the node
    /// is not its proposal: then the window only drops the node and the
    /// cached proposal stands (nothing can move it). So
    /// `candidate_refreshes ≤ h + rounds + invalidated_candidates` up to
    /// termination effects (exhaustion probes, heap rebuilds after a
    /// departure or graph delta, which refresh every surviving ad): the
    /// initial fill, the winner's repair each round and the repairs the
    /// hits force.
    pub invalidated_candidates: u64,
    /// Stopping-rule evaluations performed across ads (OnlineBounds mode
    /// only; 0 under the fixed-θ schedule).
    pub bound_checks: u64,
    /// Ads retired early because their remaining budget headroom could not
    /// cover any feasible candidate payment (they stop proposing).
    pub budget_exhausted_ads: usize,
    /// Model-distinct groups of the shared RR pool (0 when `rr_sharing`
    /// is off).
    pub pool_groups: usize,
    /// Ads served by the shared pool (identical + reweighted tenants).
    pub pooled_ads: usize,
    /// Pooled ads reading the shared sets through importance weights.
    pub reweighted_ads: usize,
    /// RR sets invalidated by `ResidentEngine::apply_graph_delta` calls —
    /// sets whose traces touched a changed edge target. Every one is
    /// resampled, so this is also the repair's resample count. 0 for batch
    /// runs.
    pub delta_invalidated_sets: u64,
}

impl RunStats {
    /// Total internal revenue estimate.
    pub fn total_revenue(&self) -> f64 {
        self.revenue_per_ad.iter().sum()
    }

    /// Total seeding cost.
    pub fn total_seeding_cost(&self) -> f64 {
        self.seeding_cost_per_ad.iter().sum()
    }

    /// Total seed count.
    pub fn total_seeds(&self) -> usize {
        self.seeds_per_ad.iter().sum()
    }

    /// Total θ across ads.
    pub fn total_theta(&self) -> usize {
        self.theta_per_ad.iter().sum()
    }

    /// Memory in GiB (Table 3's unit).
    pub fn rr_memory_gib(&self) -> f64 {
        self.rr_memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "revenue≈{:.1} cost={:.1} seeds={} θ={} mem={:.3}GiB rounds={} t={:.2}s{}",
            self.total_revenue(),
            self.total_seeding_cost(),
            self.total_seeds(),
            self.total_theta(),
            self.rr_memory_gib(),
            self.rounds,
            self.elapsed.as_secs_f64(),
            if self.sample_capped { " [CAPPED]" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_per_ad_values() {
        let s = RunStats {
            revenue_per_ad: vec![10.0, 5.0],
            seeding_cost_per_ad: vec![1.0, 2.0],
            seeds_per_ad: vec![3, 4],
            theta_per_ad: vec![100, 200],
            ..Default::default()
        };
        assert_eq!(s.total_revenue(), 15.0);
        assert_eq!(s.total_seeding_cost(), 3.0);
        assert_eq!(s.total_seeds(), 7);
        assert_eq!(s.total_theta(), 300);
    }

    #[test]
    fn display_marks_capped_runs() {
        let mut s = RunStats::default();
        assert!(!format!("{s}").contains("CAPPED"));
        s.sample_capped = true;
        assert!(format!("{s}").contains("CAPPED"));
    }
}
