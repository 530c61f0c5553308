//! Experiment setup following the paper's §5 protocol.
//!
//! * Quality experiments (Figures 2–4): Flixster-like (topical TIC, L = 10,
//!   h = 10 ads in five purely-competing pairs) and Epinions-like
//!   (Weighted Cascade, all ads competing); budgets/CPEs per Table 2,
//!   singleton spreads by RR estimation (substituting the paper's 5K-run
//!   Monte-Carlo, see DESIGN.md).
//! * Scalability experiments (Figure 5, Table 3): DBLP-like and
//!   LiveJournal-like, Weighted Cascade, CPE 1, α = 0.2, ε = 0.3,
//!   w = 5000, out-degree incentive proxies — exactly the paper's setting.
//!
//! All sizes scale with a `scale` factor so the full grid runs on a laptop;
//! `--paper-scale` in the binary sets `scale = 1.0`.

use std::sync::Arc;

use rand::{rngs::SmallRng, SeedableRng};

use rm_core::{Advertiser, IncentiveModel, RmInstance, ScalableConfig, SingletonMethod, Window};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::SyntheticDataset;

/// Which incentive schedule family an experiment sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    Linear,
    Constant,
    Sublinear,
    Superlinear,
}

impl ModelKind {
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Linear,
        ModelKind::Constant,
        ModelKind::Sublinear,
        ModelKind::Superlinear,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Linear => "linear",
            ModelKind::Constant => "constant",
            ModelKind::Sublinear => "sublinear",
            ModelKind::Superlinear => "superlinear",
        }
    }

    /// Builds the concrete model at a given α.
    pub fn at(self, alpha: f64) -> IncentiveModel {
        match self {
            ModelKind::Linear => IncentiveModel::Linear { alpha },
            ModelKind::Constant => IncentiveModel::Constant { alpha },
            ModelKind::Sublinear => IncentiveModel::Sublinear { alpha },
            ModelKind::Superlinear => IncentiveModel::Superlinear { alpha },
        }
    }

    /// The paper's α grid for this model and dataset (x-axes of Fig. 2/3).
    pub fn alpha_grid(self, ds: SyntheticDataset) -> Vec<f64> {
        let flix = matches!(ds, SyntheticDataset::FlixsterLike);
        match self {
            ModelKind::Linear => vec![0.1, 0.2, 0.3, 0.4, 0.5],
            ModelKind::Constant => {
                if flix {
                    vec![1.0, 2.0, 3.0, 4.0, 5.0]
                } else {
                    vec![6.0, 7.0, 8.0, 9.0, 10.0]
                }
            }
            ModelKind::Sublinear => {
                if flix {
                    vec![1.0, 2.0, 3.0, 4.0, 5.0]
                } else {
                    vec![11.0, 12.0, 13.0, 14.0, 15.0]
                }
            }
            ModelKind::Superlinear => {
                if flix {
                    vec![0.0001, 0.0002, 0.0003, 0.0004, 0.0005]
                } else {
                    vec![0.0006, 0.0007, 0.0008, 0.0009, 0.001]
                }
            }
        }
    }
}

/// Table 2 budget/CPE assignment for `h` advertisers, scaled. Flixster-like:
/// budgets spread over [6K, 20K]·scale (mean ≈ 10.1K·scale at h = 10 with
/// this ramp), CPE alternating 1/2; Epinions-like: [6K, 12K]·scale.
pub fn table2_terms(ds: SyntheticDataset, h: usize, scale: f64) -> Vec<(f64, f64)> {
    let (lo, hi) = match ds {
        SyntheticDataset::FlixsterLike => (6_000.0, 20_000.0),
        SyntheticDataset::EpinionsLike => (6_000.0, 12_000.0),
        _ => (10_000.0, 10_000.0),
    };
    (0..h)
        .map(|i| {
            let cpe = if i % 2 == 0 { 1.0 } else { 2.0 };
            // Geometric-ish ramp biased low so the mean lands near the
            // paper's reported means (10.1K / 8.5K at scale 1, h = 10).
            let t = (i as f64 / (h.max(2) - 1) as f64).powf(1.6);
            let budget = (lo + t * (hi - lo)) * scale;
            (cpe, budget)
        })
        .collect()
}

/// Cached quality-experiment context: the graph, propagation model, ads and
/// singleton spreads are independent of the incentive model and α, so one
/// context serves an entire Fig. 2/3 (or `lt-quality`) sweep — only the
/// incentive schedules are re-derived per grid cell. The diffusion family
/// is fixed by the constructor ([`Self::new`] = IC, [`Self::new_lt`] = LT).
pub struct QualityContext {
    /// The dataset this context was generated from.
    pub dataset: SyntheticDataset,
    /// The generated social graph.
    pub graph: Arc<rm_graph::CsrGraph>,
    ads: Vec<Advertiser>,
    ad_probs: Vec<rm_diffusion::AdProbs>,
    sigma: Vec<Arc<Vec<f64>>>,
    diffusion: rm_diffusion::DiffusionKind,
    /// Shared per-topic table of a TIC context (`None` for IC/LT).
    tic: Option<Arc<TicModel>>,
}

impl QualityContext {
    /// Builds the IC context (the expensive part: generation + pricing
    /// sample).
    pub fn new(ds: SyntheticDataset, h: usize, scale: f64, seed: u64) -> Self {
        let probe = quality_instance(ds, IncentiveModel::Linear { alpha: 1.0 }, h, scale, seed);
        Self::from_probe(ds, &probe)
    }

    /// Builds the **Linear Threshold** context: LT in-weights from the
    /// dataset's LT derivation (water-filled by the probe's `build_lt`),
    /// singleton pricing under LT.
    pub fn new_lt(ds: SyntheticDataset, h: usize, scale: f64, seed: u64) -> Self {
        let probe = lt_quality_instance(ds, IncentiveModel::Linear { alpha: 1.0 }, h, scale, seed);
        Self::from_probe(ds, &probe)
    }

    /// Builds the **lazy-mixing TIC** context: the paper's actual topical
    /// setting end-to-end — one shared per-topic table, per-ad mixtures,
    /// no flattened per-ad probability arrays anywhere in the pipeline.
    pub fn new_tic(ds: SyntheticDataset, h: usize, scale: f64, seed: u64) -> Self {
        let probe = tic_quality_instance(ds, IncentiveModel::Linear { alpha: 1.0 }, h, scale, seed);
        Self::from_probe(ds, &probe)
    }

    fn from_probe(ds: SyntheticDataset, probe: &RmInstance) -> Self {
        QualityContext {
            dataset: ds,
            graph: probe.graph.clone(),
            ads: probe.ads.clone(),
            ad_probs: probe.ad_probs.clone(),
            sigma: probe.singleton_spreads.clone(),
            diffusion: probe.diffusion,
            tic: probe.tic.clone(),
        }
    }

    /// Instantiates the context under a concrete incentive model (cheap).
    pub fn instance(&self, model: IncentiveModel) -> RmInstance {
        let incentives = self.sigma.iter().map(|s| model.schedule(s)).collect();
        let mut inst = match &self.tic {
            Some(tic) => RmInstance::with_topics(
                self.graph.clone(),
                Arc::clone(tic),
                self.ads.clone(),
                incentives,
            ),
            None => RmInstance::with_explicit_incentives(
                self.graph.clone(),
                self.ads.clone(),
                self.ad_probs.clone(),
                incentives,
            ),
        };
        inst.singleton_spreads = self.sigma.clone();
        // The cached parameters were already normalized by the probe's
        // builder, so set the kind directly — no re-scan needed.
        inst.diffusion = self.diffusion;
        inst
    }
}

/// Builds a quality-experiment instance (Fig. 2–4).
pub fn quality_instance(
    ds: SyntheticDataset,
    model: IncentiveModel,
    h: usize,
    scale: f64,
    seed: u64,
) -> RmInstance {
    let graph = Arc::new(ds.generate(scale, seed));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x70_71C);
    let n_sets = (graph.num_nodes() * 40).clamp(20_000, 400_000);
    match ds {
        SyntheticDataset::FlixsterLike => {
            let l = 10;
            let tic = TicModel::topical(&graph, l, Default::default(), &mut rng);
            let topics = TopicDistribution::competition_pairs(h, l, 0.91, &mut rng);
            let ads = topics
                .into_iter()
                .zip(table2_terms(ds, h, scale))
                .map(|(t, (cpe, budget))| Advertiser::new(cpe, budget, t))
                .collect();
            RmInstance::build(
                graph,
                &tic,
                ads,
                model,
                SingletonMethod::RrEstimate { theta: n_sets },
                seed ^ 0xF11A,
            )
        }
        _ => {
            let tic = TicModel::weighted_cascade(&graph);
            let ads = table2_terms(ds, h, scale)
                .into_iter()
                .map(|(cpe, budget)| Advertiser::new(cpe, budget, TopicDistribution::uniform(1)))
                .collect();
            RmInstance::build(
                graph,
                &tic,
                ads,
                model,
                SingletonMethod::RrEstimate { theta: n_sets },
                seed ^ 0xE414,
            )
        }
    }
}

/// Builds a **lazy-mixing TIC** quality-experiment instance (the
/// `tic-quality` artifact): the same §5 protocol as [`quality_instance`]
/// — topical L = 10 table with purely-competing ad pairs on the
/// Flixster-like analogue, Weighted Cascade (L = 1) on Epinions-like,
/// Table 2 budgets/CPEs, RR-estimated singleton pricing — but built with
/// [`RmInstance::build_tic`], so probabilities are mixed per-edge at sample
/// time and no ad ever materializes a flat probability vector.
pub fn tic_quality_instance(
    ds: SyntheticDataset,
    model: IncentiveModel,
    h: usize,
    scale: f64,
    seed: u64,
) -> RmInstance {
    let graph = Arc::new(ds.generate(scale, seed));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x71C_01C);
    let n_sets = (graph.num_nodes() * 40).clamp(20_000, 400_000);
    match ds {
        SyntheticDataset::FlixsterLike => {
            let l = 10;
            let tic = Arc::new(TicModel::topical(&graph, l, Default::default(), &mut rng));
            let topics = TopicDistribution::competition_pairs(h, l, 0.91, &mut rng);
            let ads = topics
                .into_iter()
                .zip(table2_terms(ds, h, scale))
                .map(|(t, (cpe, budget))| Advertiser::new(cpe, budget, t))
                .collect();
            RmInstance::build_tic(
                graph,
                tic,
                ads,
                model,
                SingletonMethod::RrEstimate { theta: n_sets },
                seed ^ 0x71CA,
            )
        }
        _ => {
            // Footnote-7 degeneracy: WC is the L = 1 TIC model, still run
            // through the lazy-mixing pipeline end-to-end.
            let tic = Arc::new(TicModel::weighted_cascade(&graph));
            let ads = table2_terms(ds, h, scale)
                .into_iter()
                .map(|(cpe, budget)| Advertiser::new(cpe, budget, TopicDistribution::uniform(1)))
                .collect();
            RmInstance::build_tic(
                graph,
                tic,
                ads,
                model,
                SingletonMethod::RrEstimate { theta: n_sets },
                seed ^ 0x71CE,
            )
        }
    }
}

/// The TIC model whose flattening provides the **LT in-weights** of a
/// dataset. Epinions-like (and the scalability datasets) reuse the
/// Weighted-Cascade construction `1/indeg` — exactly LT-feasible, the
/// classic Kempe et al. LT setting. Flixster-like uses trivalency weights:
/// per-node sums exceed 1 on the hubs every power-law generator produces,
/// exercising the construction-time water-fill (`RmInstance::build_lt`).
fn lt_tic_model(ds: SyntheticDataset, graph: &rm_graph::CsrGraph, seed: u64) -> TicModel {
    match ds {
        SyntheticDataset::FlixsterLike => {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x17_071C);
            TicModel::trivalency(graph, &mut rng)
        }
        _ => TicModel::weighted_cascade(graph),
    }
}

/// Builds a **Linear Threshold** quality-experiment instance (the
/// `lt-quality` artifact): Table 2 budgets/CPEs, RR-estimated singleton
/// pricing under LT, in-weights water-filled at construction.
pub fn lt_quality_instance(
    ds: SyntheticDataset,
    model: IncentiveModel,
    h: usize,
    scale: f64,
    seed: u64,
) -> RmInstance {
    let graph = Arc::new(ds.generate(scale, seed));
    let n_sets = (graph.num_nodes() * 40).clamp(20_000, 400_000);
    let tic = lt_tic_model(ds, &graph, seed);
    let ads = table2_terms(ds, h, scale)
        .into_iter()
        .map(|(cpe, budget)| Advertiser::new(cpe, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build_lt(
        graph,
        &tic,
        ads,
        model,
        SingletonMethod::RrEstimate { theta: n_sets },
        seed ^ 0x17E4,
    )
}

/// Builds a scalability-experiment instance (Fig. 5 / Table 3): WC model,
/// CPE 1, α = 0.2 linear incentives on out-degree proxies.
pub fn scalability_instance(
    ds: SyntheticDataset,
    h: usize,
    budget: f64,
    scale: f64,
    seed: u64,
) -> RmInstance {
    let graph = Arc::new(ds.generate(scale, seed));
    let tic = TicModel::weighted_cascade(&graph);
    let ads = (0..h)
        .map(|_| Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        graph,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::OutDegree,
        seed ^ 0x5CA1E,
    )
}

/// Engine configuration for quality experiments. The paper uses ε = 0.1;
/// the harness defaults to ε = 0.3 to keep the 160-run grid laptop-sized
/// (`paper_eps` restores 0.1 — see DESIGN.md → "Substitutions",
/// "Quality-experiment ε").
pub fn quality_config(seed: u64, paper_eps: bool) -> ScalableConfig {
    ScalableConfig {
        epsilon: if paper_eps { 0.1 } else { 0.3 },
        max_sets_per_ad: 2_000_000,
        seed,
        ..Default::default()
    }
}

/// Engine configuration for scalability experiments (paper: ε = 0.3,
/// w = 5000).
pub fn scalability_config(seed: u64) -> ScalableConfig {
    ScalableConfig {
        epsilon: 0.3,
        window: Window::Size(5_000),
        max_sets_per_ad: 2_000_000,
        seed,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_means_track_the_paper() {
        let flix = table2_terms(SyntheticDataset::FlixsterLike, 10, 1.0);
        let mean_b: f64 = flix.iter().map(|&(_, b)| b).sum::<f64>() / 10.0;
        let mean_cpe: f64 = flix.iter().map(|&(c, _)| c).sum::<f64>() / 10.0;
        assert!((mean_cpe - 1.5).abs() < 1e-9);
        assert!(
            (9_000.0..12_000.0).contains(&mean_b),
            "mean budget {mean_b}"
        );
        assert_eq!(
            flix.iter().map(|&(_, b)| b).fold(f64::MAX, f64::min),
            6_000.0
        );
        assert_eq!(flix.iter().map(|&(_, b)| b).fold(0.0, f64::max), 20_000.0);
    }

    #[test]
    fn alpha_grids_match_figure_axes() {
        assert_eq!(
            ModelKind::Linear.alpha_grid(SyntheticDataset::FlixsterLike),
            vec![0.1, 0.2, 0.3, 0.4, 0.5]
        );
        assert_eq!(
            ModelKind::Superlinear.alpha_grid(SyntheticDataset::EpinionsLike)[0],
            0.0006
        );
        assert_eq!(
            ModelKind::Sublinear.alpha_grid(SyntheticDataset::EpinionsLike),
            vec![11.0, 12.0, 13.0, 14.0, 15.0]
        );
    }

    #[test]
    fn quality_instance_builds_small() {
        let inst = quality_instance(
            SyntheticDataset::EpinionsLike,
            IncentiveModel::Linear { alpha: 0.1 },
            4,
            0.005,
            1,
        );
        assert_eq!(inst.num_ads(), 4);
        assert!(inst.num_nodes() >= 64);
    }

    #[test]
    fn lt_weights_waterfilled_at_instance_construction() {
        // Regression: SyntheticDataset-derived LT in-weights (trivalency on
        // the Flixster-like analogue) sum past 1 on high-in-degree hubs.
        // The instance must water-fill at construction, not reject later.
        let ds = SyntheticDataset::FlixsterLike;
        let seed = 5;
        let graph = ds.generate(0.02, seed);
        let raw = super::lt_tic_model(ds, &graph, seed)
            .ad_probs(&rm_diffusion::TopicDistribution::uniform(1));
        assert!(
            !rm_diffusion::lt_weights_feasible(&graph, &raw),
            "the raw trivalency weights should demonstrate the bug"
        );
        let inst = lt_quality_instance(ds, IncentiveModel::Linear { alpha: 0.2 }, 4, 0.02, seed);
        assert_eq!(inst.diffusion, rm_diffusion::DiffusionKind::LinearThreshold);
        for probs in &inst.ad_probs {
            assert!(rm_diffusion::lt_weights_feasible(&inst.graph, probs));
        }
    }

    #[test]
    fn lt_context_instances_match_direct_builds() {
        let ds = SyntheticDataset::EpinionsLike;
        let ctx = QualityContext::new_lt(ds, 4, 0.005, 2);
        let inst = ctx.instance(IncentiveModel::Linear { alpha: 0.3 });
        assert_eq!(inst.num_ads(), 4);
        assert_eq!(inst.diffusion, rm_diffusion::DiffusionKind::LinearThreshold);
        // WC-derived weights are already feasible; the context must not
        // have perturbed them.
        for probs in &inst.ad_probs {
            assert!(rm_diffusion::lt_weights_feasible(&inst.graph, probs));
        }
    }

    #[test]
    fn tic_context_instances_stay_lazy() {
        let ds = SyntheticDataset::FlixsterLike;
        let ctx = QualityContext::new_tic(ds, 4, 0.005, 2);
        let inst = ctx.instance(IncentiveModel::Linear { alpha: 0.3 });
        assert_eq!(inst.num_ads(), 4);
        assert_eq!(
            inst.diffusion,
            rm_diffusion::DiffusionKind::TopicAwareCascade
        );
        // The defining property of the artifact: no flattened per-ad probs.
        assert!(inst.ad_probs.is_empty());
        let tic = inst.tic.as_ref().expect("TIC instance carries its table");
        assert_eq!(tic.num_topics(), 10);
        assert_eq!(
            inst.model(0).kind(),
            rm_diffusion::DiffusionKind::TopicAwareCascade
        );
    }

    #[test]
    fn scalability_instance_uses_degree_proxy() {
        let inst = scalability_instance(SyntheticDataset::DblpLike, 2, 100.0, 0.003, 2);
        assert_eq!(inst.num_ads(), 2);
        // Degree-proxy incentives: cost of a node = α(0.2)·(outdeg+1) ≥ 0.2.
        let c0 = inst.incentives[0].cost(0);
        assert!(c0 >= 0.2 - 1e-12);
    }
}
