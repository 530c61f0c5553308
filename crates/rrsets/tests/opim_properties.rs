//! Property suite for the online stopping-rule machinery
//! (`rm_rrsets::opim` + the `RrCoverage` bound oracles it consumes):
//!
//! * the martingale bounds bracket the observed counts on arbitrary
//!   coverage vectors (real `RrCoverage` indexes built from random sets);
//! * the bounds tighten monotonically as the sample doubles;
//! * the stopping rule never fires before the minimum pilot size;
//! * the submodularity oracles (`top_k`, `greedy_extension`) really are
//!   upper bounds on what any extension can add.

use proptest::prelude::*;
use rm_graph::NodeId;
use rm_rrsets::{opim, RrArena, RrCoverage, StoppingRule};

/// Builds a coverage index over `sets` on `n` nodes.
fn index_of(n: usize, sets: &[Vec<NodeId>]) -> RrCoverage {
    let mut idx = RrCoverage::new(n);
    let arena: RrArena = sets.iter().map(|s| s.as_slice()).collect();
    idx.add_batch(&arena, &vec![false; n]);
    idx
}

/// A strategy for random RR-set batches over `n` nodes.
fn random_sets(n: usize) -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec(0u32..n as u32, 1..5).prop_map(|mut s| {
            s.sort_unstable();
            s.dedup();
            s
        }),
        1..60,
    )
}

proptest! {
    /// lower ≤ point estimate ≤ upper on coverage counts coming from a real
    /// index over arbitrary set collections.
    #[test]
    fn bounds_bracket_real_coverage_counts(sets in random_sets(12), k in 1usize..5) {
        let idx = index_of(12, &sets);
        let rule = StoppingRule::new(12, 0.3, 1.0);
        let ext = idx.greedy_extension(k, k, |_| false);
        let gain = ext.covered;
        let ub = idx.top_k(k, |_| false);
        let bc = rule.check(opim::MIN_PILOT, 1, gain, gain, ub);
        prop_assert!(bc.gain_lower <= gain + 1e-9);
        prop_assert!(bc.achieved_lower <= gain + 1e-9);
        prop_assert!(bc.residual_upper + 1e-9 >= ub);
        prop_assert!(bc.gain_lower >= 0.0);
    }

    /// Submodularity oracles really bound extensions: the greedy gain never
    /// exceeds the top-k marginal sum, and covering everything reachable
    /// leaves zero residual.
    #[test]
    fn top_k_bounds_greedy_gain(sets in random_sets(10), k in 1usize..6) {
        let idx = index_of(10, &sets);
        let ext = idx.greedy_extension(k, k, |_| false);
        let gain = ext.covered - idx.covered();
        prop_assert!(
            gain <= idx.top_k(k, |_| false),
            "greedy gain {gain} above the top-{k} bound"
        );
        // Exhaustive extension covers every set; its residual is zero.
        let all = idx.greedy_extension(10, 10, |_| false);
        prop_assert_eq!(all.covered, idx.num_sets() as f64);
        prop_assert_eq!(all.residual_top, 0.0);
    }

    /// The stopping rule never fires before the minimum pilot size, no
    /// matter how favorable the observed counts are.
    #[test]
    fn stopping_rule_never_fires_before_min_pilot(
        theta in 0usize..opim::MIN_PILOT,
        check_index in 1u64..500,
        achieved in 0.0f64..1e6,
        residual in 0.0f64..1e3,
    ) {
        let rule = StoppingRule::new(1000, 0.3, 1.0);
        let bc = rule.check(theta, check_index, achieved, achieved, residual);
        prop_assert!(!bc.satisfied, "fired at θ={theta} < {}", opim::MIN_PILOT);
    }

    /// Doubling the sample (all counts scale) tightens the certification:
    /// once a count profile certifies, its doubled profile certifies too.
    #[test]
    fn certification_is_monotone_under_doubling(
        frac_gain in 0.05f64..0.95,
        frac_res in 0.0f64..0.95,
        theta in opim::MIN_PILOT..100_000usize,
    ) {
        let rule = StoppingRule::new(5_000, 0.3, 1.0);
        let profile = |t: usize| {
            let gain = frac_gain * t as f64;
            let res = frac_res * t as f64;
            rule.check(t, 1, gain, gain, res)
        };
        let once = profile(theta);
        let twice = profile(2 * theta);
        prop_assert!(
            !once.satisfied || twice.satisfied,
            "certified at θ={theta} but not at 2θ"
        );
        // Relative slack shrinks on both sides.
        let g1 = once.gain_lower / (frac_gain * theta as f64);
        let g2 = twice.gain_lower / (frac_gain * 2.0 * theta as f64);
        prop_assert!(g2 + 1e-9 >= g1, "relative lower bound loosened");
    }

    /// The doubling schedule is monotone, bounded, and reaches the cap.
    #[test]
    fn doubling_schedule_covers_the_range(cap in 1usize..30_000_000) {
        let mut theta = opim::initial_theta(cap);
        prop_assert!(theta >= 1);
        prop_assert!(theta <= cap.max(opim::MIN_PILOT));
        let mut steps = 0;
        while theta < cap {
            let next = opim::next_theta(theta, cap);
            prop_assert!(next > theta);
            theta = next;
            steps += 1;
            prop_assert!(steps <= opim::DOUBLING_STEPS as usize + 1);
        }
    }
}
