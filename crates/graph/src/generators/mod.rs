//! Random-graph generators.
//!
//! These are the substitutes for the paper's proprietary datasets: the RM
//! algorithms are sensitive to the *degree heterogeneity* of the topology
//! (which drives the spread — and therefore the incentive — distribution),
//! so the synthetic datasets are built on power-law generators (Chung–Lu,
//! Barabási–Albert). Erdős–Rényi G(n, m) is the homogeneous control the
//! tests and benches use.
//!
//! All generators are deterministic given the caller-supplied RNG.

mod ba;
mod chung_lu;
mod er;

pub use ba::barabasi_albert;
pub use chung_lu::{chung_lu_directed, chung_lu_undirected, power_law_weights};
pub use er::erdos_renyi_m;
