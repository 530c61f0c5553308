//! Canonical gadget instances, most importantly the paper's **Figure 1**
//! tightness example for Theorem 2.
//!
//! The gadget realizes the quantities the paper reads off Figure 1: one
//! advertiser with budget `B = 7` and `cpe = 1`, deterministic influence
//! (all probabilities 1), total curvature `κ_π = 1`, lower rank `r = 1`
//! (the maximal seed set `{b}`), upper rank `R = 2` (e.g. `{a, c}`). The
//! optimum `{a, c}` earns revenue 6 while CA-GREEDY, tie-breaking onto `b`,
//! is forced to stop at revenue 3 — exactly the Theorem 2 bound
//! `(1/κ)[1 − ((R−κ)/R)^r] = 1/2`. CS-GREEDY recovers the optimum on this
//! instance (the paper's footnote 9).

use std::sync::Arc;

use rm_diffusion::{AdProbs, TopicDistribution};
use rm_graph::builder::graph_from_edges;
use rm_graph::NodeId;

use crate::advertiser::Advertiser;
use crate::incentives::IncentiveSchedule;
use crate::instance::RmInstance;

/// Node labels of the Figure 1 gadget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig1Nodes {
    /// The trap node CA-GREEDY ties onto.
    pub b: NodeId,
    /// First optimal seed.
    pub a: NodeId,
    /// Second optimal seed.
    pub c: NodeId,
}

/// Builds the Figure 1 tightness instance. Layout (all arc probabilities 1):
///
/// ```text
///   b ─┐
///       ├─> x1 ─> x2        a, b, c all have singleton spread 3;
///   a ─┘                    incentives: c(a) = c(c) = 0.5, c(b) = 3.5,
///   c ───> y1 ─> y2         c(x·) = c(y·) = 2;  B = 7, cpe = 1.
/// ```
///
/// CA-GREEDY's tie-break takes `b` (lowest node id), after which every
/// remaining pair busts the budget: revenue 3. The optimum `{a, c}` has
/// payment 6 + 1 = 7 = B and revenue 6.
pub fn tightness_instance() -> (RmInstance, Fig1Nodes) {
    // Node ids: b=0, a=1, c=2, x1=3, x2=4, y1=5, y2=6.
    let g = Arc::new(graph_from_edges(
        7,
        &[
            (0, 3), // b -> x1
            (1, 3), // a -> x1
            (3, 4), // x1 -> x2
            (2, 5), // c -> y1
            (5, 6), // y1 -> y2
        ],
    ));
    let probs = vec![AdProbs::from_vec(vec![1.0; g.num_edges()])];
    let ads = vec![Advertiser::new(1.0, 7.0, TopicDistribution::uniform(1))];
    let incentives = vec![IncentiveSchedule::new(vec![
        3.5, // b
        0.5, // a
        0.5, // c
        2.0, // x1
        2.0, // x2
        2.0, // y1
        2.0, // y2
    ])];
    let inst = RmInstance::with_explicit_incentives(g, ads, probs, incentives);
    (inst, Fig1Nodes { b: 0, a: 1, c: 2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_submod::{ca_greedy, cs_greedy, BitSet};

    #[test]
    fn gadget_spreads_match_figure() {
        let (inst, nodes) = tightness_instance();
        let p = inst.to_exact_problem();
        // cpe = 1, so an ad's revenue is its exact spread.
        let spread = |seeds: &[NodeId]| {
            p.revenue_of(0, &BitSet::from_iter(7, seeds.iter().map(|&u| u as usize)))
        };
        assert_eq!(spread(&[nodes.b]), 3.0);
        assert_eq!(spread(&[nodes.a]), 3.0);
        assert_eq!(spread(&[nodes.c]), 3.0);
        assert_eq!(spread(&[nodes.a, nodes.c]), 6.0);
    }

    #[test]
    fn ca_greedy_earns_half_of_optimum() {
        let (inst, nodes) = tightness_instance();
        let p = inst.to_exact_problem();
        let (alloc, _) = ca_greedy(&p);
        assert_eq!(
            alloc.seed_sets[0],
            vec![nodes.b as usize],
            "CA must tie-break onto b"
        );
        assert_eq!(p.total_revenue(&alloc), 3.0);
    }

    #[test]
    fn cs_greedy_recovers_the_optimum() {
        // Footnote 9: CS-GREEDY obtains the optimal solution {a, c} here.
        let (inst, nodes) = tightness_instance();
        let p = inst.to_exact_problem();
        let (alloc, _) = cs_greedy(&p);
        let mut s = alloc.seed_sets[0].clone();
        s.sort_unstable();
        assert_eq!(s, vec![nodes.a as usize, nodes.c as usize]);
        assert_eq!(p.total_revenue(&alloc), 6.0);
    }

    #[test]
    fn exact_problem_quantities_match_theorem2() {
        let (inst, _) = tightness_instance();
        let p = inst.to_exact_problem();
        assert!((p.pi_curvature() - 1.0).abs() < 1e-9, "κ_π must be 1");
        let (opt_alloc, opt) = rm_submod::exact::brute_force_optimum(&p);
        let _ = opt_alloc;
        assert!((opt - 6.0).abs() < 1e-9, "optimum must be 6, got {opt}");
        let (r, big_r) = rm_submod::exact::independence_ranks(&p);
        assert_eq!((r, big_r), (1, 2), "ranks must match the figure");
        let bound = rm_submod::theorem2_bound(p.pi_curvature(), r, big_r);
        assert!((bound - 0.5).abs() < 1e-9);
    }
}
