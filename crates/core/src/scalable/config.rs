//! Configuration of the scalable algorithms.

/// Window size `w` of the cost-sensitive selection (Fig. 4's knob): each
/// round, TI-CSRM inspects only the `w` nodes with the highest marginal
/// revenue and picks the best ratio among them. `w = 1` degenerates to
/// TI-CARM; `Full` inspects every node (the paper's default for quality
/// experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// Inspect all candidate nodes (`w = n`).
    Full,
    /// Inspect the top-`w` nodes by marginal revenue.
    Size(usize),
}

/// Which algorithm the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Cost-agnostic scalable greedy (Algorithm 2 with Alg. 4 selection).
    TiCarm,
    /// Cost-sensitive scalable greedy (Algorithm 2 with Alg. 5 selection).
    TiCsrm,
    /// Baseline: per-ad PageRank candidates, greedy (max marginal revenue)
    /// assignment across ads.
    PageRankGr,
    /// Baseline: per-ad PageRank candidates, round-robin assignment.
    PageRankRr,
}

impl AlgorithmKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::TiCarm => "TI-CARM",
            AlgorithmKind::TiCsrm => "TI-CSRM",
            AlgorithmKind::PageRankGr => "PageRank-GR",
            AlgorithmKind::PageRankRr => "PageRank-RR",
        }
    }
}

/// How the engine sizes each advertiser's RR sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SamplingStrategy {
    /// TIM-style worst-case schedule (the paper's setting): θ = `L(s, ε)`
    /// of Eq. 8 with the KPT* pilot lower bound, recomputed at every
    /// latent-size update.
    FixedTheta,
    /// OPIM-style online stopping rule (`rm_rrsets::opim`): two independent
    /// RR streams per ad, doubling from a small pilot only until the
    /// martingale lower bound on the achieved coverage clears
    /// `(1 − 1/e − ε)` times the upper bound on OPT's coverage, with
    /// Eq. 8's θ as the doubling cap. Typically draws far fewer sets for
    /// the same guarantee.
    OnlineBounds,
}

impl SamplingStrategy {
    /// Display name used by experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SamplingStrategy::FixedTheta => "fixed-theta",
            SamplingStrategy::OnlineBounds => "online-bounds",
        }
    }
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScalableConfig {
    /// Estimation accuracy ε of Eq. 8 (paper: 0.1 quality / 0.3 scalability).
    pub epsilon: f64,
    /// Confidence exponent ℓ (failure probability `n^{-ℓ}`).
    pub ell: f64,
    /// Cost-sensitive selection window (TI-CSRM only).
    pub window: Window,
    /// `true` = Algorithm 2 line 16 semantics: stop the moment no
    /// advertiser's *current* candidate is feasible. `false` = Algorithm 1
    /// semantics: discard the infeasible pair and keep searching (ablation).
    pub strict_termination: bool,
    /// Safety cap on RR sets per ad. Hitting it is reported in
    /// [`crate::RunStats::sample_capped`].
    pub max_sets_per_ad: usize,
    /// `true` = CELF-style lazy candidate heaps; `false` = eager full scans
    /// every round (ablation baseline).
    pub lazy: bool,
    /// Sample-sizing strategy: the paper's fixed-θ schedule, or the online
    /// OPIM-style stopping rule.
    pub sampling: SamplingStrategy,
    /// Cap on the worker threads each ad's RR sampler may spawn
    /// (`usize::MAX` = hardware parallelism). Results are identical for
    /// every value — the sampler is thread-count-invariant by
    /// construction — so this only exists to bound resource use and to let
    /// tests assert that invariance at the engine level.
    pub sampler_threads: usize,
    /// Worker threads for the per-round cross-advertiser selection fan-out
    /// (candidate refresh and window repair). `usize::MAX` = hardware
    /// parallelism; explicit values are honored even past the core count
    /// (up to `rm_graph::par::MAX_WORKERS`) so tests can exercise the
    /// parallel path on any machine. Results are
    /// bit-identical for every value — candidates are evaluated against an
    /// immutable snapshot of the assigned bitmap and a sequential arbiter
    /// picks the winner — so, like [`Self::sampler_threads`], this only
    /// bounds resource use.
    pub selection_threads: usize,
    /// Opt-in shared cross-advertiser RR pool
    /// (`rm_rrsets::pool::SharedRrPool`): ads whose diffusion models
    /// coincide — or, under TIC, differ only in the topic mixture over one
    /// shared table — read selection sets from one group arena instead of
    /// sampling private streams, with per-set importance weights where the
    /// mixtures differ. `false` (the default) keeps every stream private
    /// and is bit-identical to builds predating the pool. Validation
    /// streams (OnlineBounds) stay private either way.
    pub rr_sharing: bool,
    /// Master RNG seed; every run is deterministic given it.
    pub seed: u64,
    /// Test-only oracle switch: invalidate every cached candidate every
    /// round and push every window back into its heap, reproducing the
    /// pre-caching sequential engine's redraw-every-round pattern, so
    /// equivalence tests can pin the caching fast path and the window
    /// repairs against it in regimes the golden snapshots do not reach.
    #[cfg(test)]
    pub(crate) refresh_all_rounds: bool,
}

impl Default for ScalableConfig {
    fn default() -> Self {
        ScalableConfig {
            epsilon: 0.1,
            ell: 1.0,
            window: Window::Full,
            strict_termination: true,
            max_sets_per_ad: 20_000_000,
            lazy: true,
            sampling: SamplingStrategy::FixedTheta,
            sampler_threads: usize::MAX,
            selection_threads: usize::MAX,
            rr_sharing: false,
            seed: 0x5EED,
            #[cfg(test)]
            refresh_all_rounds: false,
        }
    }
}

/// A rejected [`ScalableConfig`], caught at construction instead of
/// surfacing as downstream misbehavior (a zero thread cap used to reach the
/// fan-out arithmetic, where `threads.min(jobs).max(1)` silently promoted it
/// to 1 in some paths and div-by-zero chunking loomed in others).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalableConfigError {
    /// `sampler_threads == 0`: the sampler fan-out needs at least one
    /// worker (`usize::MAX` means "hardware parallelism", not unbounded).
    ZeroSamplerThreads,
    /// `selection_threads == 0`: the per-round selection fan-out needs at
    /// least one worker.
    ZeroSelectionThreads,
    /// `epsilon` outside `(0, 1)`: Eq. 8's sample size is undefined.
    EpsilonOutOfRange(f64),
    /// `ell <= 0`: the confidence exponent must be positive.
    NonPositiveEll(f64),
    /// `window == Size(0)`: a zero-width inspection window can never
    /// propose a candidate.
    ZeroWindow,
    /// `max_sets_per_ad == 0`: every ad would be capped before its pilot.
    ZeroSampleCap,
}

impl std::fmt::Display for ScalableConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalableConfigError::ZeroSamplerThreads => {
                write!(f, "sampler_threads must be >= 1 (usize::MAX = hardware)")
            }
            ScalableConfigError::ZeroSelectionThreads => {
                write!(f, "selection_threads must be >= 1 (usize::MAX = hardware)")
            }
            ScalableConfigError::EpsilonOutOfRange(e) => {
                write!(f, "epsilon must lie in (0, 1), got {e}")
            }
            ScalableConfigError::NonPositiveEll(l) => {
                write!(f, "ell must be positive, got {l}")
            }
            ScalableConfigError::ZeroWindow => {
                write!(f, "window size must be >= 1 (or Window::Full)")
            }
            ScalableConfigError::ZeroSampleCap => {
                write!(f, "max_sets_per_ad must be >= 1")
            }
        }
    }
}

impl std::error::Error for ScalableConfigError {}

impl ScalableConfig {
    /// Rejects configurations the engine cannot honor. Run by
    /// [`super::TiEngine::try_new`] and [`super::ResidentEngine::new`], so
    /// a bad config fails loudly at construction.
    pub fn validate(&self) -> Result<(), ScalableConfigError> {
        if self.sampler_threads == 0 {
            return Err(ScalableConfigError::ZeroSamplerThreads);
        }
        if self.selection_threads == 0 {
            return Err(ScalableConfigError::ZeroSelectionThreads);
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ScalableConfigError::EpsilonOutOfRange(self.epsilon));
        }
        if self.ell <= 0.0 || self.ell.is_nan() {
            return Err(ScalableConfigError::NonPositiveEll(self.ell));
        }
        if self.window == Window::Size(0) {
            return Err(ScalableConfigError::ZeroWindow);
        }
        if self.max_sets_per_ad == 0 {
            return Err(ScalableConfigError::ZeroSampleCap);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(AlgorithmKind::TiCsrm.name(), "TI-CSRM");
        assert_eq!(AlgorithmKind::PageRankRr.name(), "PageRank-RR");
    }

    #[test]
    fn defaults_follow_paper_quality_setting() {
        let c = ScalableConfig::default();
        assert_eq!(c.epsilon, 0.1);
        assert_eq!(c.window, Window::Full);
        assert!(c.strict_termination);
        // The default sampling path is the paper's fixed-θ schedule so
        // existing runs stay bit-identical; OnlineBounds is opt-in.
        assert_eq!(c.sampling, SamplingStrategy::FixedTheta);
        assert_eq!(c.sampler_threads, usize::MAX);
        assert_eq!(c.selection_threads, usize::MAX);
        // RR sharing is opt-in: off by default so existing runs (and the
        // PR 7 goldens) stay bit-identical.
        assert!(!c.rr_sharing);
        assert_eq!(SamplingStrategy::OnlineBounds.name(), "online-bounds");
    }

    #[test]
    fn validate_accepts_defaults_and_scalability() {
        assert_eq!(ScalableConfig::default().validate(), Ok(()));
        // The paper's scalability setting (ε = 0.3, w = 5000).
        let scalability = ScalableConfig {
            epsilon: 0.3,
            window: Window::Size(5000),
            ..Default::default()
        };
        assert_eq!(scalability.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_thread_counts_with_typed_errors() {
        let cfg = ScalableConfig {
            sampler_threads: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ScalableConfigError::ZeroSamplerThreads));
        let cfg = ScalableConfig {
            selection_threads: 0,
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ScalableConfigError::ZeroSelectionThreads)
        );
        // The errors render a usable message and implement Error.
        let e: Box<dyn std::error::Error> = Box::new(ScalableConfigError::ZeroSamplerThreads);
        assert!(e.to_string().contains("sampler_threads"));
    }

    #[test]
    fn validate_rejects_degenerate_estimation_parameters() {
        for (cfg, want) in [
            (
                ScalableConfig {
                    epsilon: 0.0,
                    ..Default::default()
                },
                ScalableConfigError::EpsilonOutOfRange(0.0),
            ),
            (
                ScalableConfig {
                    epsilon: 1.5,
                    ..Default::default()
                },
                ScalableConfigError::EpsilonOutOfRange(1.5),
            ),
            (
                ScalableConfig {
                    ell: 0.0,
                    ..Default::default()
                },
                ScalableConfigError::NonPositiveEll(0.0),
            ),
            (
                ScalableConfig {
                    window: Window::Size(0),
                    ..Default::default()
                },
                ScalableConfigError::ZeroWindow,
            ),
            (
                ScalableConfig {
                    max_sets_per_ad: 0,
                    ..Default::default()
                },
                ScalableConfigError::ZeroSampleCap,
            ),
        ] {
            assert_eq!(cfg.validate(), Err(want));
        }
    }
}
