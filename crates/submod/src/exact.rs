//! Brute-force optimum and independence-system ranks for small instances.
//!
//! Exponential in the node count — these are verification oracles for tests
//! and for computing the instance-dependent quantities (`r`, `R`) in the
//! Theorem 2 bound on gadget instances like the paper's Figure 1.

use crate::bitset::BitSet;
use crate::problem::{Allocation, RmProblem};

/// Exhaustively finds an optimal feasible allocation. Complexity
/// `(h+1)^n` — panics if the instance is too large to enumerate.
pub fn brute_force_optimum(p: &RmProblem) -> (Allocation, f64) {
    let n = p.num_nodes();
    let h = p.num_ads();
    assert!(
        (n as f64) * ((h + 1) as f64).ln() < 16.0_f64.exp().ln() * 16.0,
        "instance too large for brute force"
    );
    assert!(
        pow_checked(h + 1, n).is_some(),
        "instance too large for brute force"
    );

    let mut best_alloc = Allocation::empty(h);
    let mut best_value = 0.0f64;
    let mut assign = vec![usize::MAX; n]; // usize::MAX = unassigned
    search(p, 0, &mut assign, &mut best_alloc, &mut best_value);
    (best_alloc, best_value)
}

fn search(
    p: &RmProblem,
    u: usize,
    assign: &mut Vec<usize>,
    best_alloc: &mut Allocation,
    best_value: &mut f64,
) {
    let n = p.num_nodes();
    let h = p.num_ads();
    if u == n {
        let alloc = to_alloc(assign, h);
        if p.is_feasible(&alloc) {
            let v = p.total_revenue(&alloc);
            if v > *best_value {
                *best_value = v;
                *best_alloc = alloc;
            }
        }
        return;
    }
    assign[u] = usize::MAX;
    search(p, u + 1, assign, best_alloc, best_value);
    for i in 0..h {
        assign[u] = i;
        search(p, u + 1, assign, best_alloc, best_value);
    }
    assign[u] = usize::MAX;
}

fn to_alloc(assign: &[usize], h: usize) -> Allocation {
    let mut alloc = Allocation::empty(h);
    for (u, &i) in assign.iter().enumerate() {
        if i != usize::MAX {
            alloc.seed_sets[i].push(u);
        }
    }
    alloc
}

/// Lower and upper rank `(r, R)` of the feasibility independence system
/// `(E, C)` (Definition 5): cardinalities of the smallest and largest
/// **maximal** feasible sets of (node, ad) pairs.
pub fn independence_ranks(p: &RmProblem) -> (usize, usize) {
    let n = p.num_nodes();
    let h = p.num_ads();
    assert!(
        pow_checked(h + 1, n).is_some(),
        "instance too large to enumerate"
    );
    let mut r = usize::MAX;
    let mut big_r = 0usize;
    let mut assign = vec![usize::MAX; n];
    rank_search(p, 0, &mut assign, &mut r, &mut big_r);
    assert!(big_r > 0, "no non-empty feasible set; degenerate instance");
    (r, big_r)
}

fn rank_search(p: &RmProblem, u: usize, assign: &mut Vec<usize>, r: &mut usize, big_r: &mut usize) {
    let n = p.num_nodes();
    let h = p.num_ads();
    if u == n {
        let alloc = to_alloc(assign, h);
        if !p.is_feasible(&alloc) {
            return;
        }
        if is_maximal(p, assign) {
            let size = alloc.num_seeds();
            *r = (*r).min(size);
            *big_r = (*big_r).max(size);
        }
        return;
    }
    assign[u] = usize::MAX;
    rank_search(p, u + 1, assign, r, big_r);
    for i in 0..h {
        assign[u] = i;
        rank_search(p, u + 1, assign, r, big_r);
    }
    assign[u] = usize::MAX;
}

/// A feasible set is maximal iff no (unassigned node, ad) pair can be added
/// without violating some budget.
fn is_maximal(p: &RmProblem, assign: &[usize]) -> bool {
    let n = p.num_nodes();
    let h = p.num_ads();
    for u in 0..n {
        if assign[u] != usize::MAX {
            continue;
        }
        for i in 0..h {
            let mut s = BitSet::new(n);
            for (v, &j) in assign.iter().enumerate() {
                if j == i {
                    s.insert(v);
                }
            }
            s.insert(u);
            if p.payment_of(i, &s) <= p.budgets()[i] + 1e-9 {
                return false; // extensible
            }
        }
    }
    true
}

fn pow_checked(base: usize, exp: usize) -> Option<usize> {
    let mut acc: usize = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base)?;
        if acc > 200_000_000 {
            return None;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::theorem2_bound;
    use crate::function::ModularFunction;
    use crate::greedy::{ca_greedy, cs_greedy};
    use crate::problem::RevenueFn;
    use proptest::prelude::*;

    /// Korte–Hausmann/Jenkyns **rank quotient** of the feasibility system:
    /// `q = min_{A ⊆ E} r(A) / R(A)` over restrictions with `R(A) > 0`, where
    /// `r(A)`/`R(A)` are the smallest/largest maximal feasible subsets of `A`.
    ///
    /// For *modular* objectives greedy is exactly `q`-approximate; the paper's
    /// Theorem 2 expresses its guarantee through the whole-system ranks `(r, R)`
    /// together with curvature, but the rank quotient is the sharp instance
    /// quantity and is what the property suite validates against. Doubly
    /// exponential — gadget instances only.
    fn rank_quotient(p: &RmProblem) -> f64 {
        let n = p.num_nodes();
        let h = p.num_ads();
        let e = n * h; // pair (u, i) encoded u*h + i
        assert!(
            e <= 16,
            "rank quotient enumeration limited to tiny instances"
        );
        let feasible = |mask: u32| -> bool {
            let mut alloc = Allocation::empty(h);
            for x in 0..e {
                if mask >> x & 1 == 1 {
                    alloc.seed_sets[x % h].push(x / h);
                }
            }
            p.is_feasible(&alloc)
        };
        // Precompute feasibility of every subset of pairs.
        let total = 1u32 << e;
        let feas: Vec<bool> = (0..total).map(feasible).collect();
        let mut q = 1.0f64;
        for a in 1..total {
            // Maximal feasible subsets of A.
            let mut r_a = usize::MAX;
            let mut big_r_a = 0usize;
            let mut x = a;
            loop {
                // Iterate all subsets x of a.
                if feas[x as usize] {
                    // Maximal within A?
                    let mut maximal = true;
                    let mut rest = a & !x;
                    while rest != 0 {
                        let bit = rest & rest.wrapping_neg();
                        if feas[(x | bit) as usize] {
                            maximal = false;
                            break;
                        }
                        rest &= rest - 1;
                    }
                    if maximal {
                        let size = x.count_ones() as usize;
                        r_a = r_a.min(size);
                        big_r_a = big_r_a.max(size);
                    }
                }
                if x == 0 {
                    break;
                }
                x = (x - 1) & a;
            }
            if big_r_a > 0 && r_a != usize::MAX {
                q = q.min(r_a as f64 / big_r_a as f64);
            }
        }
        q
    }

    fn modular_problem(
        weights: Vec<Vec<f64>>,
        costs: Vec<Vec<f64>>,
        budgets: Vec<f64>,
    ) -> RmProblem {
        let revenue: Vec<RevenueFn> = weights
            .into_iter()
            .map(|w| -> RevenueFn { Box::new(ModularFunction::new(w)) })
            .collect();
        RmProblem::new(revenue, costs, budgets)
    }

    #[test]
    fn brute_force_finds_known_optimum() {
        // One ad, modular values [5,3,1], unit costs, budget 10:
        // ρ({0,1}) = 8+2 = 10 is optimal (value 8); adding 2 busts the budget.
        let p = modular_problem(vec![vec![5.0, 3.0, 1.0]], vec![vec![1.0; 3]], vec![10.0]);
        let (alloc, v) = brute_force_optimum(&p);
        assert!((v - 8.0).abs() < 1e-9);
        let mut s = alloc.seed_sets[0].clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn ranks_of_uniform_instance() {
        // One ad, all values 1, costs 1, budget 4 → every maximal set has
        // payment just under 4: each seed adds ρ = 2, so max 2 seeds; r=R=2.
        let p = modular_problem(vec![vec![1.0; 4]], vec![vec![1.0; 4]], vec![4.0]);
        let (r, big_r) = independence_ranks(&p);
        assert_eq!((r, big_r), (2, 2));
    }

    #[test]
    fn ranks_diverge_on_heterogeneous_costs() {
        // One ad, budget 6. Node 0: value 1 cost 5 (ρ=6, fills budget alone).
        // Nodes 1,2: value 1 cost 2 (ρ=3 each, two fit).
        let p = modular_problem(
            vec![vec![1.0, 1.0, 1.0]],
            vec![vec![5.0, 2.0, 2.0]],
            vec![6.0],
        );
        let (r, big_r) = independence_ranks(&p);
        assert_eq!(r, 1, "the expensive node alone is maximal");
        assert_eq!(big_r, 2);
    }

    #[test]
    fn figure1_shape_instance_bound_tight() {
        // Paper-style tightness shape (modular flavour): one ad, budget such
        // that the greedy hub blocks the two-element optimum. The Theorem 2
        // bound with (r, R) of the whole system must hold on this instance.
        let p = modular_problem(
            vec![vec![3.0, 2.9, 2.9]],
            vec![vec![4.0, 0.5, 0.5]],
            vec![7.0],
        );
        let (alloc, _) = ca_greedy(&p);
        let got = p.total_revenue(&alloc);
        let (_, opt) = brute_force_optimum(&p);
        let (r, big_r) = independence_ranks(&p);
        let bound = theorem2_bound(p.pi_curvature(), r, big_r);
        assert!(got + 1e-9 >= bound * opt, "greedy {got} < {bound} * {opt}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// On modular objectives the greedy is exactly rank-quotient
        /// approximate (Korte–Hausmann / Jenkyns); validate against the
        /// enumerated quotient.
        #[test]
        fn ca_greedy_meets_rank_quotient_on_modular(
            w in prop::collection::vec(0.1f64..5.0, 4),
            c in prop::collection::vec(0.1f64..2.0, 4),
            budget in 4.0f64..12.0,
        ) {
            let p = modular_problem(vec![w], vec![c], vec![budget]);
            let (alloc, _) = ca_greedy(&p);
            prop_assert!(p.is_feasible(&alloc));
            let (opt_alloc, opt) = brute_force_optimum(&p);
            let _ = opt_alloc;
            if opt > 0.0 {
                let q = rank_quotient(&p);
                let got = p.total_revenue(&alloc);
                prop_assert!(
                    got + 1e-9 >= q * opt,
                    "greedy {got} < quotient {q} * opt {opt}"
                );
            }
        }

        /// CS-GREEDY always returns feasible allocations and never loses to
        /// the empty allocation.
        #[test]
        fn cs_greedy_feasible_on_two_ads(
            w1 in prop::collection::vec(0.1f64..5.0, 3),
            w2 in prop::collection::vec(0.1f64..5.0, 3),
            budget in 3.0f64..10.0,
        ) {
            let p = modular_problem(
                vec![w1, w2],
                vec![vec![0.5; 3], vec![0.5; 3]],
                vec![budget, budget],
            );
            let (alloc, _) = cs_greedy(&p);
            prop_assert!(p.is_feasible(&alloc));
            prop_assert!(p.total_revenue(&alloc) > 0.0);
        }
    }
}
