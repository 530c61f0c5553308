//! End-to-end reproduction of the paper's Figure 1 tightness instance,
//! exercising the whole stack: gadget construction (rm-core), exact spreads
//! (rm-diffusion), combinatorial conversion, exact greedy, brute force,
//! ranks, curvature and the Theorem 2 bound (rm-submod).

use revmax::core::instances::tightness_instance;
use revmax::submod;

#[test]
fn figure1_numbers_reproduce_exactly() {
    let (inst, nodes) = tightness_instance();
    let p = inst.to_exact_problem();

    // CA-GREEDY is trapped at revenue 3 = ½ · OPT.
    let (ca, _) = submod::ca_greedy(&p);
    assert_eq!(ca.seed_sets[0], vec![nodes.b as usize]);
    let ca_rev = p.total_revenue(&ca);
    assert_eq!(ca_rev, 3.0);

    // CS-GREEDY recovers the optimum {a, c} with revenue 6 (footnote 9).
    let (cs, _) = submod::cs_greedy(&p);
    assert_eq!(p.total_revenue(&cs), 6.0);

    // The combinatorial view certifies every quantity in the theorem.
    let (_, opt) = submod::exact::brute_force_optimum(&p);
    assert!((opt - 6.0).abs() < 1e-9);
    let (r, big_r) = submod::exact::independence_ranks(&p);
    assert_eq!((r, big_r), (1, 2));
    let kappa = p.pi_curvature();
    assert!((kappa - 1.0).abs() < 1e-9);
    let bound = submod::theorem2_bound(kappa, r, big_r);
    assert!((bound - 0.5).abs() < 1e-12);
    // Tightness: CA-GREEDY lands exactly on the bound.
    assert!((ca_rev - bound * opt).abs() < 1e-9);
}

#[test]
fn figure1_budget_is_binding_for_the_optimum() {
    let (inst, nodes) = tightness_instance();
    let p = inst.to_exact_problem();
    let s = submod::BitSet::from_iter(7, [nodes.a as usize, nodes.c as usize]);
    // ρ({a,c}) = 6 clicks + 1.0 incentives = 7 = B exactly.
    assert!((p.payment_of(0, &s) - 7.0).abs() < 1e-9);
    // Adding anything to {b} busts the budget — S = {b} is maximal.
    let b_only = submod::BitSet::from_iter(7, [nodes.b as usize]);
    assert!(p.payment_of(0, &b_only) <= 7.0);
    for u in 0..7usize {
        if u == nodes.b as usize {
            continue;
        }
        let with_u = b_only.with(u);
        assert!(
            p.payment_of(0, &with_u) > 7.0 + 1e-9,
            "adding node {u} to {{b}} should be infeasible"
        );
    }
}
