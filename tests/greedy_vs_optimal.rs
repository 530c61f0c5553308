//! Cross-crate validation of the greedy algorithms against brute-force
//! optima and the paper's guarantees on small random instances.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

use revmax::core::{Advertiser, IncentiveSchedule, RmInstance};
use revmax::diffusion::{AdProbs, TopicDistribution};
use revmax::graph::builder::graph_from_edges;
use revmax::submod;

/// Builds a random tiny instance: ≤ 6 nodes, ≤ 9 edges, 1–2 ads.
fn random_instance(seed: u64, h: usize) -> RmInstance {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 5;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.random::<f64>() < 0.3 && edges.len() < 9 {
                edges.push((u, v));
            }
        }
    }
    let g = Arc::new(graph_from_edges(n, &edges));
    let m = g.num_edges();
    let probs: Vec<f32> = (0..m).map(|_| rng.random_range(0.2..0.9)).collect();
    let ad_probs: Vec<AdProbs> = (0..h).map(|_| AdProbs::from_vec(probs.clone())).collect();
    let ads = (0..h)
        .map(|i| {
            Advertiser::new(
                1.0 + i as f64 * 0.5,
                rng.random_range(3.0..8.0),
                TopicDistribution::uniform(1),
            )
        })
        .collect();
    let incentives = (0..h)
        .map(|_| IncentiveSchedule::new((0..n).map(|_| rng.random_range(0.1..1.5)).collect()))
        .collect();
    RmInstance::with_explicit_incentives(g, ads, ad_probs, incentives)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Feasibility + the universal 1/R floor of Theorem 2 (Eq. 3) for the
    /// exact CA-GREEDY, against brute force.
    #[test]
    fn ca_greedy_respects_floor(seed in 0u64..500) {
        let inst = random_instance(seed, 1);
        if inst.graph.num_edges() == 0 { return Ok(()); }
        let p = inst.to_exact_problem();
        let (alloc, _) = submod::ca_greedy(&p);
        prop_assert!(p.is_feasible(&alloc), "infeasible greedy output");
        let (_, opt) = submod::exact::brute_force_optimum(&p);
        if opt > 0.0 {
            let (_, big_r) = submod::exact::independence_ranks(&p);
            let got = p.total_revenue(&alloc);
            prop_assert!(
                got + 1e-6 >= opt / big_r as f64,
                "CA-GREEDY {got} below the 1/R floor ({opt} / {big_r})"
            );
        }
    }

    /// CS-GREEDY stays feasible and disjoint with two competing ads.
    #[test]
    fn cs_greedy_two_ads_feasible(seed in 0u64..500) {
        let inst = random_instance(seed, 2);
        if inst.graph.num_edges() == 0 { return Ok(()); }
        let p = inst.to_exact_problem();
        let (alloc, _) = submod::cs_greedy(&p);
        prop_assert!(alloc.is_disjoint());
        prop_assert!(p.is_feasible(&alloc));
    }

    /// Theorem 3's bound holds for CS-GREEDY on single-ad instances.
    #[test]
    fn cs_greedy_meets_theorem3(seed in 0u64..300) {
        let inst = random_instance(seed, 1);
        if inst.graph.num_edges() == 0 { return Ok(()); }
        let p = inst.to_exact_problem();
        let (_, opt) = submod::exact::brute_force_optimum(&p);
        if opt <= 0.0 { return Ok(()); }
        let kappa_rho = p.rho_curvature_max();
        if kappa_rho >= 1.0 - 1e-9 { return Ok(()); } // degenerate guarantee
        let (rho_min, rho_max) = p.singleton_payment_range();
        let (_, big_r) = submod::exact::independence_ranks(&p);
        let bound = submod::theorem3_bound(big_r, kappa_rho, rho_max, rho_min);
        let (alloc, _) = submod::cs_greedy(&p);
        let got = p.total_revenue(&alloc);
        prop_assert!(
            got + 1e-6 >= bound * opt,
            "CS-GREEDY {got} < Theorem-3 bound {bound} × OPT {opt}"
        );
    }
}
