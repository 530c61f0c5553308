//! # rm-rrsets — reverse-reachable set machinery
//!
//! Scalable influence-spread estimation in the style of Borgs et al. and
//! TIM (Tang et al., SIGMOD 2014), adapted as the paper's §4 requires:
//!
//! * [`sampler`]: random **RR-set** generation, generic over the diffusion
//!   model (`rm_diffusion::DiffusionModel`). Under IC: pick a uniform target
//!   `w`, then traverse *incoming* edges, keeping each independently with
//!   its probability. Under LT: reverse-walk one live in-edge per node via
//!   flat per-node Walker alias tables. Either way the resulting node set
//!   `R` satisfies `σ(S) = n · Pr[S ∩ R ≠ ∅]` for its model. Batches sample
//!   into per-thread [`arena`]s (no per-set allocation) spliced in index
//!   order, with per-set RNG streams derived by chained SplitMix64 mixing
//!   ([`sampler::stream_seed`]).
//! * [`arena`]: **flat CSR storage** for RR-set batches — an `offsets`/
//!   `nodes` array pair replacing `Vec<Vec<NodeId>>` end-to-end.
//! * [`index`]: the **coverage index** used by the greedy loops — a flat
//!   counting-sort CSR inverted index, incremental covered-set bookkeeping,
//!   support for *growing* the sample mid-run (Algorithm 3
//!   `UpdateEstimates`), capacity-based byte accounting (Table 3), and
//!   CELF-style lazy-greedy heaps.
//! * [`tim`]: **sample-size determination** — `L(s, ε)` of Eq. 8 and TIM's
//!   KPT* estimation of the `OPT_s` lower bound, with cached RR-set widths so
//!   the bound can be re-evaluated for a growing seed-set size `s` without
//!   resampling (see DESIGN.md → Engineering notes).
//! * [`opim`]: **online stopping rule** — OPIM-C-style martingale bounds
//!   over two independent RR streams, doubling the sample only until the
//!   achieved-coverage lower bound clears `(1 − 1/e − ε)` times the OPT
//!   upper bound, with the Eq. 8 worst case of [`tim`] as the doubling cap.
//! * [`estimator`]: stand-alone unbiased spread estimators over fresh
//!   samples, used for incentive pricing (singleton spreads of *all* nodes
//!   from one sample) and for algorithm-independent evaluation of final
//!   allocations.
//! * [`pool`]: the **shared cross-advertiser RR pool** — ads are grouped by
//!   diffusion model, each group samples one arena from a reference model,
//!   and topic-aware tenants whose mixture differs from the reference read
//!   the shared sets through per-set importance weights (trajectory
//!   likelihood ratios), so total sampling cost scales with the number of
//!   *distinct* models rather than the number of ads.

#![forbid(unsafe_code)]

pub mod arena;
pub mod estimator;
pub mod index;
pub mod opim;
pub mod pool;
pub mod sampler;
pub mod tim;

pub use arena::RrArena;
pub use estimator::{rr_estimate_spread_model, rr_singleton_spreads_model};
pub use index::{GreedyExtension, LazyGreedyHeap, RrCoverage};
pub use opim::{BoundCheck, StoppingRule};
pub use pool::{SharedRrPool, TenantMode};
pub use sampler::{sample_rr_set, stream_seed, PreparedSampler, RrWorkspace};
pub use tim::{log_choose, sample_size, KptEstimator, TimConfig};
