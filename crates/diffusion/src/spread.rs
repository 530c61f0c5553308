//! Monte-Carlo expected-spread estimation, sequential and parallel.
//!
//! `σ_i(S)` is the expected cascade size from seed set `S` under the
//! ad-specific probabilities. The paper uses 5K-run MC estimates of the
//! singleton spreads `σ_i({u})` to price seed incentives on its quality
//! datasets; [`singleton_spreads_mc`] reproduces that computation with the
//! work spread across the cores by [`rm_graph::par`].
//!
//! Every RNG stream is derived from its work item ([`stream_seed`]): one
//! per node for singleton spreads, one per block of 1,000 runs for
//! [`estimate_spread`]. The estimates are therefore deterministic in `seed`
//! at any worker count, so hosts with different core counts agree.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rm_graph::par::{available_cores, steal_blocks, Handoff};
use rm_graph::seed::stream_seed;
use rm_graph::{CsrGraph, NodeId};

use crate::cascade::{simulate_cascade, CascadeWorkspace};
use crate::tic::AdProbs;

/// A spread estimate with its sampling metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpreadEstimate {
    /// Estimated expected spread.
    pub spread: f64,
    /// Number of Monte-Carlo runs behind the estimate.
    pub runs: usize,
}

/// Monte-Carlo runs per [`estimate_spread`] RNG stream: the unit of work a
/// thread takes.
const RUN_BLOCK: usize = 1000;

/// Estimates `σ(S)` with `runs` Monte-Carlo simulations, split across
/// the cores in blocks of 1,000 runs. Deterministic in `seed` at any
/// worker count: block `b` draws from stream `stream_seed(seed, b)`.
pub fn estimate_spread(
    g: &CsrGraph,
    probs: &AdProbs,
    seeds: &[NodeId],
    runs: usize,
    seed: u64,
) -> SpreadEstimate {
    estimate_spread_on(g, probs, seeds, runs, seed, available_cores())
}

/// [`estimate_spread`] on up to `threads` workers.
fn estimate_spread_on(
    g: &CsrGraph,
    probs: &AdProbs,
    seeds: &[NodeId],
    runs: usize,
    seed: u64,
    threads: usize,
) -> SpreadEstimate {
    if seeds.is_empty() || runs == 0 {
        return SpreadEstimate { spread: 0.0, runs };
    }
    let mut total = 0u64;
    steal_blocks(
        runs.div_ceil(RUN_BLOCK),
        1,
        threads,
        Handoff::Joined,
        || CascadeWorkspace::new(g.num_nodes()),
        |b, _, ws| {
            let mut rng = SmallRng::seed_from_u64(stream_seed(seed, b as u64));
            let block = RUN_BLOCK.min(runs - b * RUN_BLOCK);
            (0..block)
                .map(|_| simulate_cascade(g, probs, seeds, ws, &mut rng) as u64)
                .sum::<u64>()
        },
        |block_total| total += block_total,
    );
    SpreadEstimate {
        spread: total as f64 / runs as f64,
        runs,
    }
}

/// Estimates the singleton spread `σ({u})` of **every** node with `runs` MC
/// simulations each, one node per work-stealing block. This is the
/// incentive pricing input: `c_i(u) = f(σ_i({u}))`.
pub fn singleton_spreads_mc(g: &CsrGraph, probs: &AdProbs, runs: usize, seed: u64) -> Vec<f64> {
    singleton_spreads_with(
        g.num_nodes(),
        runs,
        seed,
        available_cores(),
        || CascadeWorkspace::new(g.num_nodes()),
        |u, ws, rng| simulate_cascade(g, probs, &[u], ws, rng),
    )
}

/// Shared scaffolding for per-node singleton-spread Monte-Carlo, generic
/// over the cascade simulator: spreads the nodes over up to `threads`
/// workers, draws node `u`'s runs from stream `stream_seed(seed, u)`, and
/// averages `runs` calls of `sim` per node. Both the IC estimator above and
/// the LT one (`lt::singleton_spreads_lt_mc`) are thin instantiations, so
/// seeding changes apply to every model at once.
pub(crate) fn singleton_spreads_with<W, M, F>(
    n: usize,
    runs: usize,
    seed: u64,
    threads: usize,
    make_ws: M,
    sim: F,
) -> Vec<f64>
where
    M: Fn() -> W + Sync,
    F: Fn(NodeId, &mut W, &mut SmallRng) -> usize + Sync,
{
    let mut out = Vec::with_capacity(n);
    steal_blocks(
        n,
        1,
        threads,
        Handoff::Joined,
        make_ws,
        |u, _, ws| {
            let mut rng = SmallRng::seed_from_u64(stream_seed(seed, u as u64));
            let total: usize = (0..runs).map(|_| sim(u as NodeId, ws, &mut rng)).sum();
            total as f64 / runs as f64
        },
        |spread| out.push(spread),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_graph::builder::graph_from_edges;

    #[test]
    fn deterministic_chain_has_exact_spread() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let probs = AdProbs::from_vec(vec![1.0; 4]);
        let est = estimate_spread(&g, &probs, &[0], 200, 42);
        assert!((est.spread - 5.0).abs() < 1e-12);
    }

    #[test]
    fn two_hop_probability_math() {
        // 0 -p-> 1 -q-> 2: E[spread({0})] = 1 + p + p*q.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (p, q) = (0.6f64, 0.3f64);
        let probs = AdProbs::from_vec(vec![p as f32, q as f32]);
        let est = estimate_spread(&g, &probs, &[0], 60_000, 7);
        let expect = 1.0 + p + p * q;
        assert!(
            (est.spread - expect).abs() < 0.03,
            "expected {expect}, got {}",
            est.spread
        );
    }

    #[test]
    fn spread_bounded_by_seed_count_and_n() {
        let g = graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let est = estimate_spread(&g, &probs, &[0, 2], 500, 3);
        assert!(est.spread >= 2.0 && est.spread <= 6.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let probs = AdProbs::from_vec(vec![0.5; 3]);
        let a = estimate_spread(&g, &probs, &[0], 1000, 11);
        let b = estimate_spread(&g, &probs, &[0], 1000, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_spreads_shape_and_bounds() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let probs = AdProbs::from_vec(vec![1.0; 3]);
        let s = singleton_spreads_mc(&g, &probs, 50, 5);
        assert_eq!(s.len(), 4);
        assert_eq!(s, vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn empty_seed_set_spreads_zero() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let probs = AdProbs::from_vec(vec![1.0]);
        assert_eq!(estimate_spread(&g, &probs, &[], 100, 1).spread, 0.0);
    }

    #[test]
    fn estimates_are_identical_at_any_worker_count() {
        // Streams follow the work item (node, run block), never the worker,
        // so 1, 2 and 8 workers agree bit for bit. 5,500 runs span six run
        // blocks with an uneven tail.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)]);
        let probs = AdProbs::from_vec(vec![0.5; 6]);
        let spread = |t| estimate_spread_on(&g, &probs, &[0], 5_500, 13, t);
        let singletons = |t| {
            singleton_spreads_with(
                6,
                300,
                13,
                t,
                || CascadeWorkspace::new(6),
                |u, ws, rng| simulate_cascade(&g, &probs, &[u], ws, rng),
            )
        };
        let (want, want_s) = (spread(1), singletons(1));
        for t in [2, 8] {
            assert_eq!(spread(t), want, "estimate differs at {t} workers");
            assert_eq!(singletons(t), want_s, "singletons differ at {t} workers");
        }
        assert_eq!(estimate_spread(&g, &probs, &[0], 5_500, 13), want);
        assert_eq!(singleton_spreads_mc(&g, &probs, 300, 13), want_s);
    }
}
