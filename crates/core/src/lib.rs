//! # rm-core — revenue maximization in incentivized social advertising
//!
//! The paper's primary contribution, end to end:
//!
//! * **Problem model** (§2): advertisers with CPE pricing and budgets
//!   ([`advertiser`]), incentive schedules priced from topical singleton
//!   spreads ([`incentives`]), and the full instance type ([`instance`]).
//! * **Exact reference algorithms** (§3): [`RmInstance::to_exact_problem`]
//!   tabulates each ad's revenue by exact world enumeration, so
//!   `rm_submod::{ca_greedy, cs_greedy}` (Algorithm 1) solve small graphs
//!   and gadgets exactly.
//! * **Scalable algorithms** (§4): TI-CARM and TI-CSRM ([`scalable`]) —
//!   RR-set sampling, TIM sample sizes, latent seed-set-size estimation
//!   (Eq. 10), windowed cost-sensitive selection, and Algorithm 3's
//!   incremental estimate updates.
//! * **Baselines** (§5): PageRank-GR and PageRank-RR ([`baselines`]).
//! * **Evaluation utilities**: algorithm-independent re-scoring of
//!   allocations ([`allocation`]), run statistics incl. memory accounting
//!   ([`metrics`]), and the paper's Figure 1 tightness gadget
//!   ([`instances`]).

#![forbid(unsafe_code)]

pub mod advertiser;
pub mod allocation;
pub mod baselines;
pub mod incentives;
pub mod instance;
pub mod instances;
pub mod metrics;
pub mod scalable;

pub use advertiser::Advertiser;
pub use allocation::{evaluate_allocation, EvalMethod, EvalReport, SeedAllocation};
pub use incentives::{IncentiveModel, IncentiveSchedule, SingletonMethod};
pub use instance::RmInstance;
pub use metrics::RunStats;
pub use scalable::{
    AlgorithmKind, GraphDelta, ResidentEngine, ResidentError, SamplingStrategy, ScalableConfig,
    ScalableConfigError, ServeEvent, ServeOp, TiEngine, Window,
};
