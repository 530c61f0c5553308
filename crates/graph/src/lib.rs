//! # rm-graph — social-graph substrate
//!
//! Directed-graph topology layer used by every other crate in the workspace.
//! The representation is a compressed sparse row (CSR) adjacency with **both**
//! out- and in-neighbour views sharing a single canonical edge-id space, so
//! per-edge attributes (influence probabilities, weights) can be stored once
//! in a flat array and consulted from either traversal direction:
//!
//! * forward Monte-Carlo cascades walk `out_edges(u)`,
//! * reverse-reachable (RR) set sampling walks `in_edges(v)`.
//!
//! The crate also provides the random-graph generators used to synthesize the
//! paper's four evaluation datasets (Chung–Lu power-law, Barabási–Albert)
//! plus an Erdős–Rényi control, weighted PageRank (substrate for
//! the paper's `PageRank-GR` / `PageRank-RR` baselines), degree statistics,
//! and a plain-text edge-list reader/writer. Two modules serve every crate
//! above it: [`seed`] derives RNG streams and [`par`] runs every parallel
//! loop in the workspace.
//!
//! ## Quick example
//!
//! ```
//! use rm_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = generators::erdos_renyi_m(100, 400, true, &mut rng);
//! assert_eq!(g.num_nodes(), 100);
//! assert!(g.num_edges() <= 400);
//! let deg_sum: usize = (0..g.num_nodes() as u32).map(|u| g.out_degree(u)).sum();
//! assert_eq!(deg_sum, g.num_edges());
//! ```

#![forbid(unsafe_code)]

pub mod alias;
pub mod builder;
pub mod components;
pub mod csr;
pub mod degree;
pub mod generators;
pub mod io;
pub mod pagerank;
pub mod par;
pub mod seed;
pub mod snapshot;
pub mod synthetic;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, EdgeId, NodeId};
pub use degree::DegreeStats;
pub use pagerank::{pagerank, PageRankConfig};
pub use synthetic::{SyntheticDataset, SyntheticSpec};
