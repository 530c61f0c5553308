//! # revmax — Revenue Maximization in Incentivized Social Advertising
//!
//! A complete Rust implementation of
//! *"Revenue Maximization in Incentivized Social Advertising"*
//! (Aslay, Bonchi, Lakshmanan, Lu — VLDB 2017, arXiv:1612.00531).
//!
//! A social platform (the **host**) sells cost-per-engagement ad campaigns
//! to `h` advertisers. For each ad it picks **seed endorsers**, pays each an
//! incentive proportional to her past topical influence, and lets the ad
//! propagate through the follower graph under the topic-aware independent
//! cascade model. The host maximizes its revenue subject to a partition
//! matroid (each user endorses at most one ad per window) and one
//! submodular-knapsack budget constraint per advertiser.
//!
//! This crate is a façade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] | CSR social graph, generators, PageRank, dataset registry |
//! | [`diffusion`] | topic model, TIC/IC/WC propagation, Monte-Carlo spread |
//! | [`rrsets`] | RR-set sampling, coverage indexes, TIM sample sizes |
//! | [`submod`] | submodular framework: constraint checks, exact greedy, Theorem 2/3 bounds, exact optima |
//! | [`core`] | the RM problem, CA/CS-GREEDY, TI-CARM/TI-CSRM, baselines |
//!
//! ## Quickstart
//!
//! ```
//! use revmax::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A follower graph (here: a small synthetic power-law network).
//! use rand::{rngs::SmallRng, SeedableRng};
//! let mut rng = SmallRng::seed_from_u64(7);
//! let graph = Arc::new(revmax::graph::generators::barabasi_albert(200, 3, &mut rng));
//!
//! // 2. Influence probabilities: the weighted-cascade special case of TIC.
//! let tic = TicModel::weighted_cascade(&graph);
//!
//! // 3. Two advertisers with CPE 1, budget 30 each.
//! let ads = vec![
//!     Advertiser::new(1.0, 30.0, TopicDistribution::uniform(1)),
//!     Advertiser::new(1.0, 30.0, TopicDistribution::uniform(1)),
//! ];
//!
//! // 4. Linear incentives priced from RR-estimated singleton spreads.
//! let inst = RmInstance::build(
//!     graph, &tic, ads,
//!     IncentiveModel::Linear { alpha: 0.2 },
//!     SingletonMethod::RrEstimate { theta: 10_000 },
//!     42,
//! );
//!
//! // 5. Run the paper's winning algorithm.
//! let cfg = ScalableConfig { epsilon: 0.3, max_sets_per_ad: 200_000, ..Default::default() };
//! let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
//! assert!(alloc.is_disjoint());
//! assert!(stats.total_revenue() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use rm_core as core;
pub use rm_diffusion as diffusion;
pub use rm_graph as graph;
pub use rm_rrsets as rrsets;
pub use rm_submod as submod;

/// The commonly needed types in one import.
pub mod prelude {
    pub use rm_core::{
        evaluate_allocation, Advertiser, AlgorithmKind, EvalMethod, EvalReport, IncentiveModel,
        IncentiveSchedule, RmInstance, RunStats, SamplingStrategy, ScalableConfig, SeedAllocation,
        SingletonMethod, TiEngine, Window,
    };
    pub use rm_diffusion::{DiffusionKind, DiffusionModel, TicModel, TopicDistribution};
    pub use rm_graph::{CsrGraph, NodeId, SyntheticDataset};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let _ = AlgorithmKind::TiCsrm.name();
        let _ = SyntheticDataset::FlixsterLike.spec();
        let cfg = ScalableConfig::default();
        assert_eq!(cfg.epsilon, 0.1);
    }
}
