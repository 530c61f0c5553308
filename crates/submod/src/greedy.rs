//! Exact CA-GREEDY and CS-GREEDY (Algorithm 1 and its cost-sensitive
//! variant) over oracle revenue functions.
//!
//! Both iterate over the live ground set of (node, advertiser) pairs:
//!
//! * **CA-GREEDY** picks `argmax π_i(u | S_i)`;
//! * **CS-GREEDY** picks `argmax π_i(u | S_i) / ρ_i(u | S_i)`;
//!
//! then tests feasibility of the augmented solution (partition matroid +
//! knapsacks). Feasible pairs are committed; infeasible pairs are removed
//! from the ground set and the loop continues until the ground set empties —
//! exactly the paper's pseudocode.

use crate::bitset::BitSet;
use crate::problem::{Allocation, RmProblem};

/// A record of one greedy run.
#[derive(Clone, Debug, Default)]
pub struct GreedyTrace {
    /// Committed picks: `(node, ad, marginal revenue, marginal payment)`.
    pub picks: Vec<(usize, usize, f64, f64)>,
    /// Number of pairs rejected by the feasibility test.
    pub rejected: usize,
}

/// Selection rule for the exact greedy loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    CostAgnostic,
    CostSensitive,
}

/// Exact CA-GREEDY (Algorithm 1).
pub fn ca_greedy(p: &RmProblem) -> (Allocation, GreedyTrace) {
    run(p, Rule::CostAgnostic)
}

/// Exact CS-GREEDY (Algorithm 1 with the ratio rule of §3.2).
pub fn cs_greedy(p: &RmProblem) -> (Allocation, GreedyTrace) {
    run(p, Rule::CostSensitive)
}

fn run(p: &RmProblem, rule: Rule) -> (Allocation, GreedyTrace) {
    let n = p.num_nodes();
    let h = p.num_ads();
    let mut alive = vec![true; n * h]; // pair (u, i) at index u*h + i
    let mut alive_count = n * h;
    let mut sets: Vec<BitSet> = (0..h).map(|_| BitSet::new(n)).collect();
    let mut payments = vec![0.0f64; h];
    let mut assigned = vec![false; n];
    let mut alloc = Allocation::empty(h);
    let mut trace = GreedyTrace::default();

    while alive_count > 0 {
        // Line 4: argmax over the live ground set.
        let mut best: Option<(usize, usize, f64)> = None; // (u, i, score)
        for u in 0..n {
            for i in 0..h {
                if !alive[u * h + i] {
                    continue;
                }
                let gain = p.revenue_marginal(i, u, &sets[i]);
                let score = match rule {
                    Rule::CostAgnostic => gain,
                    Rule::CostSensitive => {
                        let dp = gain + p.cost_of(i, u);
                        if dp <= 0.0 {
                            0.0
                        } else {
                            gain / dp
                        }
                    }
                };
                let better = match best {
                    None => true,
                    Some((_, _, s)) => score > s + 1e-15,
                };
                if better {
                    best = Some((u, i, score));
                }
            }
        }
        let (u, i, _) = best.expect("alive_count > 0 but no live pair found");

        // Lines 5–12: feasibility test, commit or remove.
        let feasible = !assigned[u] && {
            let with_u = sets[i].with(u);
            p.payment_of(i, &with_u) <= p.budgets()[i] + 1e-9
        };
        if feasible {
            let gain = p.revenue_marginal(i, u, &sets[i]);
            let dpay = p.payment_marginal(i, u, &sets[i]);
            sets[i].insert(u);
            payments[i] += dpay;
            assigned[u] = true;
            alloc.seed_sets[i].push(u);
            trace.picks.push((u, i, gain, dpay));
        } else {
            trace.rejected += 1;
        }
        alive[u * h + i] = false;
        alive_count -= 1;
    }
    (alloc, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{CoverageFunction, ModularFunction, ScaledFunction};
    use crate::problem::RevenueFn;

    /// One advertiser, modular revenue (weights), unit costs, budget that
    /// admits exactly the two heaviest nodes.
    fn modular_single_ad() -> RmProblem {
        let revenue: Vec<RevenueFn> =
            vec![Box::new(ModularFunction::new(vec![5.0, 3.0, 1.0, 0.5]))];
        let cost = vec![vec![1.0; 4]];
        // ρ({0,1}) = 8 + 2 = 10.
        RmProblem::new(revenue, cost, vec![10.0])
    }

    #[test]
    fn ca_greedy_picks_by_gain() {
        let p = modular_single_ad();
        let (alloc, trace) = ca_greedy(&p);
        assert_eq!(alloc.seed_sets[0], vec![0, 1]);
        assert!(
            trace.rejected >= 1,
            "cheaper nodes must get rejected by budget"
        );
        assert!(p.is_feasible(&alloc));
    }

    #[test]
    fn cs_greedy_prefers_high_ratio() {
        // Node 0: revenue 10, cost 90 (ratio 0.1); node 1: revenue 8, cost 0
        // (ratio 1). Budget 20: CS takes node 1 first, then cannot afford 0.
        let revenue: Vec<RevenueFn> = vec![Box::new(ModularFunction::new(vec![10.0, 8.0]))];
        let cost = vec![vec![90.0, 0.0]];
        let p = RmProblem::new(revenue, cost, vec![20.0]);
        let (cs, _) = cs_greedy(&p);
        assert_eq!(cs.seed_sets[0], vec![1]);
        // CA also picks node 0 first by gain, which is infeasible (ρ=100>20),
        // so it falls back to node 1.
        let (ca, trace) = ca_greedy(&p);
        assert_eq!(ca.seed_sets[0], vec![1]);
        assert_eq!(trace.rejected, 1);
    }

    #[test]
    fn disjointness_enforced_across_ads() {
        // Two ads value the same node 0 most; only one may take it.
        let mk = || -> RevenueFn { Box::new(ModularFunction::new(vec![10.0, 1.0])) };
        let p = RmProblem::new(
            vec![mk(), mk()],
            vec![vec![1.0, 1.0]; 2],
            vec![100.0, 100.0],
        );
        let (alloc, _) = ca_greedy(&p);
        assert!(p.is_feasible(&alloc));
        assert!(alloc.is_disjoint());
        assert_eq!(alloc.num_seeds(), 2);
        // Both nodes assigned somewhere.
        let mut all: Vec<usize> = alloc.seed_sets.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn submodular_revenue_diminishing_choice() {
        // Coverage: nodes 0 and 1 overlap heavily; 2 covers fresh items.
        let cov = CoverageFunction::unit(vec![vec![0, 1, 2], vec![0, 1, 3], vec![4, 5]], 6);
        let revenue: Vec<RevenueFn> = vec![Box::new(ScaledFunction::new(cov, 1.0))];
        let p = RmProblem::new(revenue, vec![vec![0.1; 3]], vec![100.0]);
        let (alloc, trace) = ca_greedy(&p);
        // Greedy: 0 (gain 3), then 2 (gain 2) beats 1 (gain 1).
        assert_eq!(trace.picks[0].0, 0);
        assert_eq!(trace.picks[1].0, 2);
        assert_eq!(alloc.seed_sets[0].len(), 3);
    }

    /// Revenue at cpe 1 on a graph whose arcs all have probability 1: the
    /// spread of `S` is the number of nodes reachable from it, so
    /// `reach[u]` lists the nodes `u` reaches (itself included).
    fn deterministic_spread(reach: &[&[u32]]) -> RevenueFn {
        let covers = reach.iter().map(|r| r.to_vec()).collect();
        Box::new(CoverageFunction::unit(covers, reach.len()))
    }

    /// Chain 0→1→2→3, one ad, incentives `0.5 · σ({u})` = [2, 1.5, 1, 0.5].
    fn chain(budget: f64) -> RmProblem {
        let revenue = vec![deterministic_spread(&[
            &[0, 1, 2, 3],
            &[1, 2, 3],
            &[2, 3],
            &[3],
        ])];
        RmProblem::new(revenue, vec![vec![2.0, 1.5, 1.0, 0.5]], vec![budget])
    }

    #[test]
    fn ca_takes_the_source_on_a_chain() {
        let (alloc, _) = ca_greedy(&chain(7.0));
        // After seeding node 0 (ρ = 4 + 2 = 6), Algorithm 1 keeps scanning
        // and can still afford node 2 at zero marginal revenue (ρ = 7 ≤ 7).
        assert_eq!(alloc.seed_sets[0], vec![0, 2]);
    }

    #[test]
    fn budget_zero_headroom_blocks_everything_but_cheapest() {
        // Budget 1.5 only affords node 3 (ρ = 1 + 0.5).
        let (alloc, _) = ca_greedy(&chain(1.5));
        assert_eq!(alloc.seed_sets[0], vec![3]);
    }

    #[test]
    fn cs_beats_ca_when_hub_is_overpriced() {
        // Two disjoint stars: hub 0 → {1,2,3} (spread 4) costs 10, hub
        // 4 → {5,6} (spread 3) costs 0.5. With budget 15, CA takes hub 0
        // (ρ = 14) and is left with leaves; CS prefers hub 4's ratio.
        let revenue = vec![deterministic_spread(&[
            &[0, 1, 2, 3],
            &[1],
            &[2],
            &[3],
            &[4, 5, 6],
            &[5],
            &[6],
        ])];
        let cost = vec![vec![10.0, 0.1, 0.1, 0.1, 0.5, 0.1, 0.1]];
        let p = RmProblem::new(revenue, cost, vec![15.0]);
        let (ca, _) = ca_greedy(&p);
        let (cs, _) = cs_greedy(&p);
        let (ca_rev, cs_rev) = (p.total_revenue(&ca), p.total_revenue(&cs));
        assert!(cs_rev >= ca_rev, "CS {cs_rev} < CA {ca_rev}");
        assert!(
            !cs.seed_sets[0].contains(&0),
            "CS took the overpriced hub: {:?}",
            cs.seed_sets[0]
        );
    }

    #[test]
    fn two_ads_split_the_market() {
        // Stars 0 → {1,2} and 3 → {4,5}; two identical ads with budget 10
        // and incentives `0.1 · σ({u})`.
        let mk = || deterministic_spread(&[&[0, 1, 2], &[1], &[2], &[3, 4, 5], &[4], &[5]]);
        let cost = vec![0.3, 0.1, 0.1, 0.3, 0.1, 0.1];
        let p = RmProblem::new(vec![mk(), mk()], vec![cost.clone(), cost], vec![10.0; 2]);
        let (alloc, _) = ca_greedy(&p);
        assert!(alloc.is_disjoint());
        // Both hubs must be seeded.
        let all = alloc.seed_sets.concat();
        assert!(all.contains(&0) && all.contains(&3));
    }

    #[test]
    fn terminates_when_nothing_affordable() {
        let revenue: Vec<RevenueFn> = vec![Box::new(ModularFunction::new(vec![1.0, 1.0]))];
        // Cheapest singleton payment is 1 + 5 = 6 > budget 5 … but the
        // problem statement assumes every advertiser affords one seed, so
        // budget 6 admits exactly one.
        let p = RmProblem::new(revenue, vec![vec![5.0, 5.0]], vec![6.0]);
        let (alloc, _) = ca_greedy(&p);
        assert_eq!(alloc.num_seeds(), 1);
    }
}
