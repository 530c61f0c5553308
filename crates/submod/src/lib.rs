//! # rm-submod — submodular optimization framework
//!
//! The combinatorial backbone of the paper's §3: monotone submodular
//! function maximization subject to a **partition matroid** (each user
//! endorses at most one ad) and **submodular knapsack** constraints (one per
//! advertiser budget).
//!
//! This crate is deliberately independent of graphs and diffusion: it works
//! over abstract [`SetFunction`]s. [`RmProblem`] makes the two constraint
//! checks, measures its own curvatures and independence-system ranks, and
//! feeds the Theorem 2/3 bounds; [`ca_greedy`] / [`cs_greedy`] are the exact
//! Algorithm 1 that `rm-core` runs as its reference, and the brute-force
//! optima in [`exact`] verify all of it on small ground sets.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod bounds;
pub mod exact;
pub mod function;
pub mod greedy;
pub mod problem;

pub use bitset::BitSet;
pub use bounds::{theorem2_bound, theorem3_bound};
pub use function::{CoverageFunction, ModularFunction, ScaledFunction, SetFunction};
pub use greedy::{ca_greedy, cs_greedy, GreedyTrace};
pub use problem::{Allocation, RmProblem};
