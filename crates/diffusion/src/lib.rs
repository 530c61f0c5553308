//! # rm-diffusion — topic-aware influence propagation
//!
//! Implements the paper's propagation stack (§2):
//!
//! * a **topic model**: each ad `i` is a distribution `γ_i` over `L` latent
//!   topics ([`TopicDistribution`]);
//! * the **Topic-aware Independent Cascade (TIC)** model of Barbieri et al.:
//!   every edge `(u,v)` carries per-topic probabilities `p^z_{u,v}`, and an
//!   ad-specific edge probability is the mixture
//!   `p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}` (Eq. 1, [`TicModel::ad_probs`]);
//! * forward **Monte-Carlo cascade simulation** and (parallel) expected-spread
//!   estimation, used for seed-incentive computation and as ground truth for
//!   the RR-set estimators;
//! * **possible-world** utilities including exact spread computation by
//!   world enumeration on tiny graphs (test oracle).
//!
//! With `L = 1` the TIC model degenerates to the standard IC model, exactly
//! as the paper notes (footnote 7); the Weighted-Cascade and trivalency
//! constructors build such single-topic instances.
//!
//! Beyond the paper, [`model::DiffusionModel`] abstracts the propagation
//! family itself (Independent Cascade vs Linear Threshold vs lazy-mixing
//! TIC), so the RR-set machinery, pricing, and the scalable engine are
//! model-generic. The [`DiffusionModel::Tic`] variant keeps **one** shared
//! per-topic table ([`TicModel`], in-slot-gathered as [`TicInSlots`]) and
//! mixes each ad's probabilities at sample time, so per-ad memory is a
//! topic mixture, not an edge array.

#![forbid(unsafe_code)]

pub mod cascade;
pub mod lt;
pub mod model;
pub mod spread;
pub mod tic;
pub mod topic;
pub mod world;

pub use cascade::{simulate_cascade, CascadeWorkspace};
pub use lt::{
    estimate_lt_spread, lt_weights_feasible, normalize_lt_weights, sample_lt_rr_set,
    simulate_lt_cascade, LtWorkspace,
};
pub use model::{DiffusionKind, DiffusionModel};
pub use spread::{estimate_spread, singleton_spreads_mc, SpreadEstimate};
pub use tic::{AdProbs, TicInSlots, TicModel, TopicalConfig};
pub use topic::TopicDistribution;
