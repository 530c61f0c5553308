//! The model-generic diffusion abstraction.
//!
//! The paper's TI-CSRM/TI-CARM engines are defined over *any* triggering
//! model: everything downstream of the propagation layer only needs (a) a
//! forward cascade simulator and (b) a reverse-reachable-set sampler whose
//! sets satisfy `σ(S) = n · Pr[S ∩ R ≠ ∅]`. [`DiffusionModel`] packages the
//! per-edge parameters with the model family so samplers, estimators,
//! pricing, and the engine dispatch on one value instead of forking per
//! model:
//!
//! * **Independent Cascade** ([`DiffusionModel::IndependentCascade`]): each
//!   edge fires independently with its ad-specific probability (Eq. 1's TIC
//!   flattening). The RR dual keeps each incoming edge independently.
//! * **Linear Threshold** ([`DiffusionModel::LinearThreshold`]): each node
//!   draws a uniform threshold and activates when active in-neighbour
//!   weights reach it. By Kempe et al.'s live-edge equivalence, this equals
//!   each node picking **at most one** incoming edge (edge `e` with
//!   probability `w_e`), so the RR dual is a reverse walk choosing one live
//!   in-edge per node.
//! * **Topic-aware Independent Cascade** ([`DiffusionModel::Tic`]): the
//!   paper's actual model. One shared per-topic edge table (`TicModel`)
//!   plus a per-ad topic mixture `γ`; the ad-specific probability
//!   `p^γ_{uv} = Σ_z γ_z · p^z_{uv}` (Eq. 1) is mixed **lazily** at
//!   traversal/sample time, so memory stays independent of the number of
//!   advertisers. The RR dual is IC's with the mixed probability.
//!
//! Future triggering-model variants (continuous-time, topic-LT, decay) slot
//! in as further arms of this enum plus a sampling mode in
//! `rm_rrsets::sampler`, instead of another sampler fork.

use std::sync::Arc;

use rm_graph::{CsrGraph, NodeId};

use crate::lt::{lt_weights_feasible, normalize_lt_weights, singleton_spreads_lt_mc};
use crate::spread::{estimate_spread, singleton_spreads_mc};
use crate::tic::{AdProbs, TicModel};
use crate::topic::TopicDistribution;

/// The model family, without its parameters (what `RmInstance` records).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiffusionKind {
    /// Independent Cascade (incl. its WC/trivalency constructions and
    /// ahead-of-time-flattened TIC).
    IndependentCascade,
    /// Linear Threshold with per-edge in-weights.
    LinearThreshold,
    /// Topic-aware Independent Cascade with lazily mixed per-ad
    /// probabilities over a shared per-topic table.
    TopicAwareCascade,
}

impl DiffusionKind {
    /// Display name used by experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DiffusionKind::IndependentCascade => "IC",
            DiffusionKind::LinearThreshold => "LT",
            DiffusionKind::TopicAwareCascade => "TIC",
        }
    }
}

/// A diffusion model bound to its per-edge parameters (cheap to clone: the
/// parameter storage is `Arc`-shared).
#[derive(Clone, Debug)]
pub enum DiffusionModel {
    /// Independent Cascade with per-edge firing probabilities.
    IndependentCascade(AdProbs),
    /// Linear Threshold with per-edge in-weights. Invariant: for every node
    /// the in-weights sum to at most 1 ([`lt_weights_feasible`]); construct
    /// via [`DiffusionModel::lt`] to have infeasible weights water-filled.
    LinearThreshold(AdProbs),
    /// Topic-aware Independent Cascade: one shared per-topic edge table
    /// plus this ad's topic mixture. Edge probabilities are mixed lazily at
    /// traversal/sample time (`p^γ_{uv} = Σ_z γ_z · p^z_{uv}`,
    /// [`TicModel::mixed_prob`]) instead of materializing a flat per-ad
    /// probability array, so `h` ads over the same `TicModel` cost `h`
    /// mixtures, not `h` edge arrays.
    Tic {
        /// The shared per-topic edge-probability table.
        tic: Arc<TicModel>,
        /// This ad's topic mixture `γ`.
        gamma: TopicDistribution,
    },
}

impl DiffusionModel {
    /// An Independent Cascade model over the given edge probabilities.
    pub fn ic(probs: AdProbs) -> Self {
        DiffusionModel::IndependentCascade(probs)
    }

    /// A Linear Threshold model over the given in-weights, water-filled into
    /// feasibility per node ([`normalize_lt_weights`]). Feasible inputs are
    /// passed through without copying.
    // By-value on purpose: symmetric with `lt_prenormalized` (which does
    // consume), and callers pass freshly built AdProbs.
    #[allow(clippy::needless_pass_by_value)]
    pub fn lt(g: &CsrGraph, weights: AdProbs) -> Self {
        DiffusionModel::LinearThreshold(normalize_lt_weights(g, &weights))
    }

    /// A Linear Threshold model over weights the caller guarantees feasible
    /// (e.g. already normalized at instance construction); skips the O(n+m)
    /// water-fill scan. Debug builds verify the invariant.
    pub fn lt_prenormalized(g: &CsrGraph, weights: AdProbs) -> Self {
        debug_assert!(
            lt_weights_feasible(g, &weights),
            "lt_prenormalized requires feasible in-weights"
        );
        DiffusionModel::LinearThreshold(weights)
    }

    /// A Topic-aware Independent Cascade model: the shared per-topic table
    /// plus one ad's topic mixture, mixed lazily at traversal time.
    ///
    /// # Panics
    /// Panics if the mixture's topic count differs from the table's.
    pub fn tic(tic: Arc<TicModel>, gamma: TopicDistribution) -> Self {
        assert_eq!(
            gamma.num_topics(),
            tic.num_topics(),
            "ad topic count mismatch"
        );
        DiffusionModel::Tic { tic, gamma }
    }

    /// Which family this model belongs to.
    pub fn kind(&self) -> DiffusionKind {
        match self {
            DiffusionModel::IndependentCascade(_) => DiffusionKind::IndependentCascade,
            DiffusionModel::LinearThreshold(_) => DiffusionKind::LinearThreshold,
            DiffusionModel::Tic { .. } => DiffusionKind::TopicAwareCascade,
        }
    }

    /// The per-edge parameters (IC probabilities or LT in-weights), indexed
    /// by canonical edge id.
    ///
    /// # Panics
    /// Panics for TIC models, which deliberately never materialize a flat
    /// per-edge array — use [`Self::tic_parts`] (lazy mixing) or
    /// [`TicModel::ad_probs`] (explicit O(m) flattening) instead.
    pub fn params(&self) -> &AdProbs {
        match self {
            DiffusionModel::IndependentCascade(p) | DiffusionModel::LinearThreshold(p) => p,
            DiffusionModel::Tic { .. } => panic!(
                "TIC models mix probabilities lazily and have no flat params; \
                 use tic_parts() or TicModel::ad_probs()"
            ),
        }
    }

    /// The shared table and mixture of a TIC model, `None` for IC/LT.
    pub fn tic_parts(&self) -> Option<(&Arc<TicModel>, &TopicDistribution)> {
        match self {
            DiffusionModel::Tic { tic, gamma } => Some((tic, gamma)),
            _ => None,
        }
    }

    /// Estimates the expected spread `σ(seeds)` with `runs` Monte-Carlo
    /// simulations. Deterministic in `seed`.
    pub fn estimate_spread(&self, g: &CsrGraph, seeds: &[NodeId], runs: usize, seed: u64) -> f64 {
        match self {
            DiffusionModel::IndependentCascade(p) => {
                estimate_spread(g, p, seeds, runs, seed).spread
            }
            DiffusionModel::LinearThreshold(w) => {
                crate::lt::estimate_lt_spread(g, w, seeds, runs, seed)
            }
            // One transient O(m) flatten per estimate call amortized over
            // `runs` simulations; mixing is bit-identical to the lazy path
            // (`TicModel::mixed_prob`), so the estimate distribution is too.
            DiffusionModel::Tic { tic, gamma } => {
                estimate_spread(g, &tic.ad_probs(gamma), seeds, runs, seed).spread
            }
        }
    }

    /// Estimates the singleton spread of **every** node with `runs`
    /// Monte-Carlo simulations each (the incentive-pricing input).
    pub fn singleton_spreads_mc(&self, g: &CsrGraph, runs: usize, seed: u64) -> Vec<f64> {
        match self {
            DiffusionModel::IndependentCascade(p) => singleton_spreads_mc(g, p, runs, seed),
            DiffusionModel::LinearThreshold(w) => singleton_spreads_lt_mc(g, w, runs, seed),
            DiffusionModel::Tic { tic, gamma } => {
                singleton_spreads_mc(g, &tic.ad_probs(gamma), runs, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_graph::builder::graph_from_edges;

    fn chain() -> CsrGraph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn kinds_and_params_round_trip() {
        let g = chain();
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let ic = DiffusionModel::ic(probs.clone());
        assert_eq!(ic.kind(), DiffusionKind::IndependentCascade);
        assert!(ic.params().shares_storage(&probs));
        let lt = DiffusionModel::lt(&g, probs.clone());
        assert_eq!(lt.kind(), DiffusionKind::LinearThreshold);
        // Feasible weights pass through unchanged.
        assert!(lt.params().shares_storage(&probs));
        assert_eq!(DiffusionKind::LinearThreshold.name(), "LT");
    }

    #[test]
    fn lt_constructor_waterfills() {
        // Node 2's in-weights sum to 1.8; `lt` must normalize them.
        let g = graph_from_edges(3, &[(0, 2), (1, 2)]);
        let w = AdProbs::from_vec(vec![0.9, 0.9]);
        let lt = DiffusionModel::lt(&g, w);
        assert!(lt_weights_feasible(&g, lt.params()));
        assert!((lt.params().get(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn both_models_simulate_deterministic_chain() {
        let g = chain();
        let full = AdProbs::from_vec(vec![1.0; 3]);
        for model in [
            DiffusionModel::ic(full.clone()),
            DiffusionModel::lt(&g, full.clone()),
        ] {
            assert_eq!(model.estimate_spread(&g, &[1], 50, 2), 3.0);
            assert_eq!(
                model.singleton_spreads_mc(&g, 20, 3),
                vec![4.0, 3.0, 2.0, 1.0]
            );
        }
    }

    #[test]
    fn tic_variant_dispatches_and_matches_flat_ic() {
        let g = chain();
        let probs: Vec<f32> = (0..3).flat_map(|_| [0.9, 0.1]).collect();
        let tic = Arc::new(TicModel::from_matrix(&g, 2, probs));
        let gamma = TopicDistribution::new(&[0.7, 0.3]);
        let model = DiffusionModel::tic(Arc::clone(&tic), gamma.clone());
        assert_eq!(model.kind(), DiffusionKind::TopicAwareCascade);
        assert_eq!(model.kind().name(), "TIC");
        let (t, gm) = model.tic_parts().expect("TIC parts");
        assert!(Arc::ptr_eq(t, &tic));
        assert_eq!(gm, &gamma);

        // Every estimator agrees with the flat-IC model over ad_probs.
        let flat = DiffusionModel::ic(tic.ad_probs(&gamma));
        assert!(flat.tic_parts().is_none());
        assert_eq!(
            model.estimate_spread(&g, &[0], 300, 17),
            flat.estimate_spread(&g, &[0], 300, 17)
        );
        assert_eq!(
            model.singleton_spreads_mc(&g, 50, 5),
            flat.singleton_spreads_mc(&g, 50, 5)
        );
    }

    #[test]
    #[should_panic(expected = "no flat params")]
    fn tic_params_panics_with_guidance() {
        let g = chain();
        let tic = Arc::new(TicModel::uniform(&g, 0.5));
        let model = DiffusionModel::tic(tic, TopicDistribution::uniform(1));
        let _ = model.params();
    }

    #[test]
    #[should_panic(expected = "topic count mismatch")]
    fn tic_constructor_rejects_mismatched_mixture() {
        let g = chain();
        let tic = Arc::new(TicModel::uniform(&g, 0.5));
        let _ = DiffusionModel::tic(tic, TopicDistribution::uniform(3));
    }
}
