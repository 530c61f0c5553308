//! Engine-level tests for TI-CARM / TI-CSRM and the baselines.

use std::sync::Arc;

use rand::{rngs::SmallRng, SeedableRng};

use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::generators;

use crate::advertiser::Advertiser;
use crate::allocation::{evaluate_allocation, EvalMethod};
use crate::incentives::{IncentiveModel, SingletonMethod};
use crate::instance::RmInstance;

use super::{AlgorithmKind, SamplingStrategy, ScalableConfig, TiEngine, Window};

/// Mid-size Weighted-Cascade instance: BA graph, `h` ads in pure
/// competition, linear incentives.
fn wc_instance(n: usize, h: usize, budget: f64, alpha: f64, seed: u64) -> RmInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = Arc::new(generators::barabasi_albert(n, 3, &mut rng));
    let tic = TicModel::weighted_cascade(&g);
    let ads = (0..h)
        .map(|_| Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha },
        SingletonMethod::RrEstimate { theta: 20_000 },
        seed ^ 0x1111,
    )
}

fn test_cfg(seed: u64) -> ScalableConfig {
    ScalableConfig {
        epsilon: 0.3,
        max_sets_per_ad: 400_000,
        seed,
        ..Default::default()
    }
}

/// Internal feasibility: every ad's own estimate of its payment must respect
/// the budget.
fn assert_feasible(inst: &RmInstance, alloc: &crate::SeedAllocation, stats: &crate::RunStats) {
    assert!(alloc.is_disjoint(), "seed sets overlap");
    for i in 0..inst.num_ads() {
        let rho = stats.revenue_per_ad[i] + stats.seeding_cost_per_ad[i];
        assert!(
            rho <= inst.ads[i].budget + 1e-6,
            "ad {i}: internal payment {rho} exceeds budget {}",
            inst.ads[i].budget
        );
    }
}

#[test]
fn ti_csrm_produces_feasible_allocation() {
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    assert!(alloc.num_seeds() > 0, "no seeds selected");
    assert_feasible(&inst, &alloc, &stats);
    assert!(stats.total_revenue() > 0.0);
    assert!(stats.rr_memory_bytes > 0);
    assert_eq!(stats.rounds, alloc.num_seeds());
}

#[test]
fn ti_carm_produces_feasible_allocation() {
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCarm, test_cfg(7)).run();
    assert!(alloc.num_seeds() > 0);
    assert_feasible(&inst, &alloc, &stats);
}

#[test]
fn deterministic_in_seed() {
    let inst = wc_instance(300, 2, 40.0, 0.2, 9);
    let (a1, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(5)).run();
    let (a2, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(5)).run();
    assert_eq!(a1, a2, "same seed must reproduce the allocation");
    let (a3, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(6)).run();
    // Different sampling seed will usually change something; at minimum it
    // must still be feasible (checked by equality of shape).
    assert_eq!(a3.seeds.len(), a1.seeds.len());
}

#[test]
fn lazy_and_eager_agree_for_ti_carm() {
    let inst = wc_instance(300, 2, 40.0, 0.2, 21);
    let lazy = test_cfg(3);
    let eager = ScalableConfig {
        lazy: false,
        ..lazy
    };
    let (a1, s1) = TiEngine::new(&inst, AlgorithmKind::TiCarm, lazy).run();
    let (a2, s2) = TiEngine::new(&inst, AlgorithmKind::TiCarm, eager).run();
    assert_eq!(a1, a2, "lazy evaluation must not change the result");
    assert!(
        s1.candidate_evaluations < s2.candidate_evaluations,
        "lazy ({}) should evaluate fewer candidates than eager ({})",
        s1.candidate_evaluations,
        s2.candidate_evaluations
    );
}

/// A tie-heavy instance: 300 nodes, a 4-node chain and isolated nodes
/// otherwise, with constant incentives — so many nodes share a coverage
/// count, and equal coverage means an exactly equal coverage-to-cost ratio.
fn tied_ratio_instance() -> RmInstance {
    let edges: Vec<(rm_graph::NodeId, rm_graph::NodeId)> = (0..3).map(|i| (i, i + 1)).collect();
    let g = Arc::new(rm_graph::builder::graph_from_edges(300, &edges));
    let tic = TicModel::weighted_cascade(&g);
    let ads = (0..3)
        .map(|_| Advertiser::new(1.0, 30.0, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Constant { alpha: 0.5 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        11,
    )
}

#[test]
fn lazy_and_eager_agree_for_ti_csrm_windowed() {
    // The eager ablation must rank exactly like the lazy window: members
    // by (coverage desc, node asc), ratio ties to the last member. w = 1 is
    // TI-CARM's order, 8 a proper window, 1000 ≥ n the whole live set. The
    // tied-ratio instance (small θ) is where an unordered window breaks
    // ties differently.
    let arms = [
        (wc_instance(300, 4, 60.0, 0.2, 33), 400_000),
        (tied_ratio_instance(), 2_000),
    ];
    for (inst, max_sets_per_ad) in &arms {
        for w in [1, 8, 1000] {
            let lazy = ScalableConfig {
                window: Window::Size(w),
                max_sets_per_ad: *max_sets_per_ad,
                ..test_cfg(3)
            };
            let eager = ScalableConfig {
                lazy: false,
                ..lazy
            };
            let (a1, s1) = TiEngine::new(inst, AlgorithmKind::TiCsrm, lazy).run();
            let (a2, s2) = TiEngine::new(inst, AlgorithmKind::TiCsrm, eager).run();
            let what = format!("w={w} θ≤{max_sets_per_ad}");
            assert!(a1.num_seeds() > 0, "{what}: no seeds");
            assert_eq!(a1, a2, "{what}: lazy evaluation must not change the result");
            assert_eq!(s1.revenue_per_ad, s2.revenue_per_ad, "{what}");
            assert!(
                s1.candidate_evaluations < s2.candidate_evaluations,
                "{what}: lazy ({}) should evaluate fewer candidates than eager ({})",
                s1.candidate_evaluations,
                s2.candidate_evaluations
            );
        }
    }
}

#[test]
fn constant_incentives_nullify_cost_sensitivity() {
    // Single ad + constant incentives: CS ordering equals CA ordering.
    let mut rng = SmallRng::seed_from_u64(31);
    let g = Arc::new(generators::barabasi_albert(300, 3, &mut rng));
    let tic = TicModel::weighted_cascade(&g);
    let ads = vec![Advertiser::new(1.0, 50.0, TopicDistribution::uniform(1))];
    let inst = RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Constant { alpha: 0.3 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        11,
    );
    let (ca, _) = TiEngine::new(&inst, AlgorithmKind::TiCarm, test_cfg(2)).run();
    let (cs, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(2)).run();
    assert_eq!(ca, cs, "constant incentives must make CA and CS identical");
}

#[test]
fn csrm_beats_carm_under_linear_incentives() {
    // The paper's headline: cost-sensitive seeding wins when incentives are
    // heterogeneous. Evaluated on an independent sample.
    let inst = wc_instance(600, 3, 150.0, 0.4, 77);
    let cfg = test_cfg(13);
    let (ca, _) = TiEngine::new(&inst, AlgorithmKind::TiCarm, cfg).run();
    let (cs, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    assert!(
        ca.num_seeds() > 0,
        "budget must afford TI-CARM's hub candidates"
    );
    let eval = EvalMethod::RrSets { theta: 50_000 };
    let ca_eval = evaluate_allocation(&inst, &ca, eval, 99);
    let cs_eval = evaluate_allocation(&inst, &cs, eval, 99);
    let (ca_rev, cs_rev) = (ca_eval.total_revenue(), cs_eval.total_revenue());
    assert!(
        cs_rev >= 0.95 * ca_rev,
        "TI-CSRM ({cs_rev}) should not lose to TI-CARM ({ca_rev})"
    );
    // Cost-sensitivity shows up as better revenue per incentive dollar.
    let ca_eff = ca_rev / ca_eval.total_seeding_cost().max(1e-9);
    let cs_eff = cs_rev / cs_eval.total_seeding_cost().max(1e-9);
    assert!(
        cs_eff >= ca_eff * 0.95,
        "TI-CSRM efficiency {cs_eff} below TI-CARM {ca_eff}"
    );
}

#[test]
fn window_one_matches_carm_candidates_single_ad() {
    // §5: "TI-CARM corresponds to the case when w = 1".
    let inst = wc_instance(300, 1, 40.0, 0.2, 55);
    let cfg_w1 = ScalableConfig {
        window: Window::Size(1),
        ..test_cfg(4)
    };
    let (w1, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg_w1).run();
    let (ca, _) = TiEngine::new(&inst, AlgorithmKind::TiCarm, test_cfg(4)).run();
    assert_eq!(w1, ca);
}

#[test]
fn wider_windows_do_not_reduce_revenue_much() {
    let inst = wc_instance(500, 2, 50.0, 0.4, 60);
    let eval = EvalMethod::RrSets { theta: 40_000 };
    let mut revs = Vec::new();
    for w in [Window::Size(1), Window::Size(50), Window::Full] {
        let cfg = ScalableConfig {
            window: w,
            ..test_cfg(8)
        };
        let (alloc, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        revs.push(evaluate_allocation(&inst, &alloc, eval, 5).total_revenue());
    }
    // Full window should be the best of the three (within noise).
    let full = revs[2];
    assert!(
        full >= revs[0] * 0.98 && full >= revs[1] * 0.98,
        "full-window revenue {full} dominated by smaller windows {revs:?}"
    );
}

#[test]
fn pagerank_baselines_feasible_and_weaker_than_csrm() {
    let inst = wc_instance(500, 3, 50.0, 0.4, 88);
    let cfg = test_cfg(17);
    let eval = EvalMethod::RrSets { theta: 40_000 };
    let (cs, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    let cs_rev = evaluate_allocation(&inst, &cs, eval, 23).total_revenue();
    for kind in [AlgorithmKind::PageRankGr, AlgorithmKind::PageRankRr] {
        let (alloc, stats) = TiEngine::new(&inst, kind, cfg).run();
        assert!(alloc.is_disjoint(), "{}: overlapping seeds", kind.name());
        assert_feasible(&inst, &alloc, &stats);
        let rev = evaluate_allocation(&inst, &alloc, eval, 23).total_revenue();
        assert!(
            cs_rev >= 0.9 * rev,
            "{}: baseline revenue {rev} dwarfs TI-CSRM {cs_rev}",
            kind.name()
        );
    }
}

#[test]
fn strict_vs_continue_termination() {
    let inst = wc_instance(300, 2, 30.0, 0.5, 91);
    let strict = test_cfg(6);
    let relaxed = ScalableConfig {
        strict_termination: false,
        ..strict
    };
    let (a_strict, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, strict).run();
    let (a_relax, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, relaxed).run();
    // Continuing past the first infeasible round can only add seeds.
    assert!(a_relax.num_seeds() >= a_strict.num_seeds());
}

#[test]
fn sample_cap_is_reported() {
    let inst = wc_instance(300, 1, 50.0, 0.2, 14);
    let cfg = ScalableConfig {
        max_sets_per_ad: 500,
        ..test_cfg(3)
    };
    let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    assert!(stats.sample_capped, "hitting the θ cap must be reported");
    assert!(stats.theta_per_ad.iter().all(|&t| t <= 500));
}

/// Deterministic chain gadget (p = 1, exact σ = [4, 3, 2, 1]): with linear
/// incentives at α = 0.25, seeding node 0 costs 1 and yields revenue 4, so
/// ρ = 5 exactly after the first commit.
fn chain_instance(budget: f64) -> RmInstance {
    let g = Arc::new(rm_graph::builder::graph_from_edges(
        4,
        &[(0, 1), (1, 2), (2, 3)],
    ));
    let tic = TicModel::uniform(&g, 1.0);
    let ads = vec![Advertiser::new(1.0, budget, TopicDistribution::uniform(1))];
    RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.25 },
        SingletonMethod::MonteCarlo { runs: 10 },
        1,
    )
}

#[test]
fn budget_exhausted_ad_is_retired() {
    // Budget 5.1: after committing node 0 the headroom (0.1) is below the
    // cheapest possible candidate payment (c_min = 0.25), so the ad must be
    // retired instead of proposing infeasible candidates forever.
    let inst = chain_instance(5.1);
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCarm, test_cfg(3)).run();
    assert_eq!(alloc.seeds, vec![vec![0]]);
    assert_eq!(stats.budget_exhausted_ads, 1);
    assert_eq!(stats.rounds, 1);
}

#[test]
fn ample_headroom_does_not_retire_the_ad() {
    // Budget 10: plenty of headroom after node 0; the ad ends by heap
    // exhaustion (everything covered), not by the budget guard.
    let inst = chain_instance(10.0);
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCarm, test_cfg(3)).run();
    assert_eq!(alloc.seeds, vec![vec![0]]);
    assert_eq!(stats.budget_exhausted_ads, 0);
}

/// Mid-size **Linear Threshold** instance: BA graph, WC-derived in-weights
/// (1/indeg — exactly LT-feasible), `h` ads, linear incentives.
fn lt_instance(n: usize, h: usize, budget: f64, alpha: f64, seed: u64) -> RmInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = Arc::new(generators::barabasi_albert(n, 3, &mut rng));
    let tic = TicModel::weighted_cascade(&g);
    let ads = (0..h)
        .map(|_| Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build_lt(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha },
        SingletonMethod::RrEstimate { theta: 20_000 },
        seed ^ 0x2222,
    )
}

#[test]
fn lt_engine_runs_both_algorithms_end_to_end() {
    let inst = lt_instance(400, 3, 60.0, 0.2, 43);
    for kind in [AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm] {
        let (alloc, stats) = TiEngine::new(&inst, kind, test_cfg(7)).run();
        assert!(alloc.num_seeds() > 0, "{}: no seeds under LT", kind.name());
        assert_feasible(&inst, &alloc, &stats);
        assert!(stats.total_revenue() > 0.0);
        // The evaluation path must also dispatch on the LT model.
        let eval = evaluate_allocation(&inst, &alloc, EvalMethod::RrSets { theta: 40_000 }, 19);
        assert!(eval.total_revenue() > 0.0);
    }
}

#[test]
fn lt_engine_deterministic_in_seed() {
    let inst = lt_instance(300, 2, 40.0, 0.2, 9);
    let (a1, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(5)).run();
    let (a2, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(5)).run();
    assert_eq!(a1, a2, "same seed must reproduce the LT allocation");
}

#[test]
fn lt_and_ic_instances_differ_in_allocations_or_revenue() {
    // Same graph and budgets; the two propagation families must actually be
    // exercised (identical end-to-end results would suggest the LT mode is
    // silently falling back to IC).
    let ic = wc_instance(400, 2, 60.0, 0.2, 47);
    let lt = lt_instance(400, 2, 60.0, 0.2, 47);
    let (ica, ics) = TiEngine::new(&ic, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    let (lta, lts) = TiEngine::new(&lt, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    assert!(
        ica != lta || (ics.total_revenue() - lts.total_revenue()).abs() > 1e-9,
        "IC and LT runs are byte-identical — model dispatch is broken"
    );
}

fn online_cfg(seed: u64) -> ScalableConfig {
    ScalableConfig {
        sampling: SamplingStrategy::OnlineBounds,
        ..test_cfg(seed)
    }
}

#[test]
fn online_bounds_feasible_and_cheaper_for_both_algorithms() {
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    for kind in [AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm] {
        let (f_alloc, f_stats) = TiEngine::new(&inst, kind, test_cfg(7)).run();
        let (o_alloc, o_stats) = TiEngine::new(&inst, kind, online_cfg(7)).run();
        assert!(o_alloc.num_seeds() > 0, "{}: no seeds", kind.name());
        assert_feasible(&inst, &o_alloc, &o_stats);
        assert!(
            o_stats.rr_sets_sampled < f_stats.rr_sets_sampled,
            "{}: online drew {} sets vs fixed {}",
            kind.name(),
            o_stats.rr_sets_sampled,
            f_stats.rr_sets_sampled,
        );
        assert!(o_stats.bound_checks > 0, "stopping rule never evaluated");
        assert_eq!(f_stats.bound_checks, 0, "fixed-θ must not run the rule");
        // Sanity on the default path: fixed-θ unchanged by the feature.
        assert!(f_alloc.num_seeds() > 0);
    }
}

#[test]
fn online_bounds_deterministic_in_seed() {
    let inst = wc_instance(300, 2, 40.0, 0.2, 9);
    let (a1, s1) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, online_cfg(5)).run();
    let (a2, s2) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, online_cfg(5)).run();
    assert_eq!(a1, a2, "same seed must reproduce the OnlineBounds run");
    assert_eq!(s1.rr_sets_sampled, s2.rr_sets_sampled);
    assert_eq!(s1.bound_checks, s2.bound_checks);
}

#[test]
fn online_bounds_thread_count_invariant() {
    // Seed sets must be bit-identical across sampler worker counts: the
    // doubling batches and both RR streams are stream-seeded, so capping
    // the engine at one sampler thread cannot change anything but timing.
    let inst = wc_instance(400, 3, 60.0, 0.2, 21);
    for sampling in [SamplingStrategy::OnlineBounds, SamplingStrategy::FixedTheta] {
        let wide = ScalableConfig {
            sampling,
            ..test_cfg(13)
        };
        let single = ScalableConfig {
            sampler_threads: 1,
            ..wide
        };
        let (a_wide, s_wide) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, wide).run();
        let (a_single, s_single) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, single).run();
        assert_eq!(
            a_wide, a_single,
            "{:?}: seed sets differ across sampler thread counts",
            sampling
        );
        assert_eq!(s_wide.rr_sets_sampled, s_single.rr_sets_sampled);
        assert_eq!(s_wide.theta_per_ad, s_single.theta_per_ad);
    }
}

#[test]
fn online_bounds_respects_total_sets_valve() {
    // max_sets_per_ad bounds the TOTAL sets an ad may draw; with two
    // streams each gets half, so a never-certifying run (the valve is far
    // below the pilot floor here) stops at the valve and reports capping.
    let inst = wc_instance(300, 1, 50.0, 0.2, 14);
    let cfg = ScalableConfig {
        max_sets_per_ad: 500,
        ..online_cfg(3)
    };
    let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    assert!(
        stats.rr_sets_sampled <= 500,
        "online mode drew {} sets past the per-ad valve",
        stats.rr_sets_sampled
    );
    assert!(stats.theta_per_ad.iter().all(|&t| t <= 250));
    assert!(stats.sample_capped, "valve-clamped run must report capping");
}

#[test]
fn online_bounds_runs_under_linear_threshold() {
    // The stopping rule must work through the model-generic dispatch: an
    // LT instance run end-to-end under OnlineBounds, feasible and cheaper.
    let inst = lt_instance(400, 3, 60.0, 0.2, 43);
    let (f_alloc, f_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    let (o_alloc, o_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, online_cfg(7)).run();
    assert!(o_alloc.num_seeds() > 0, "no seeds under LT OnlineBounds");
    assert_feasible(&inst, &o_alloc, &o_stats);
    assert!(o_stats.bound_checks > 0);
    assert!(
        o_stats.rr_sets_sampled < f_stats.rr_sets_sampled,
        "LT online drew {} sets vs fixed {}",
        o_stats.rr_sets_sampled,
        f_stats.rr_sets_sampled,
    );
    assert!(f_alloc.num_seeds() > 0);
}

/// The deterministic `RunStats` fields the parallel selection rounds must
/// reproduce bit-for-bit for every worker count (wall time and
/// capacity-based memory are the only legitimately volatile ones).
fn deterministic_stats(s: &crate::RunStats) -> impl PartialEq + std::fmt::Debug {
    (
        (
            s.rounds,
            s.seeds_per_ad.clone(),
            s.theta_per_ad.clone(),
            s.latent_size_per_ad.clone(),
            s.revenue_per_ad.clone(),
        ),
        (
            s.seeding_cost_per_ad.clone(),
            s.rr_sets_sampled,
            s.sample_capped,
            s.candidate_evaluations,
            s.candidate_refreshes,
        ),
        (
            s.contended_rounds,
            s.invalidated_candidates,
            s.bound_checks,
            s.budget_exhausted_ads,
            s.pool_groups,
            s.pooled_ads,
            s.reweighted_ads,
        ),
    )
}

#[test]
fn selection_thread_count_invariance() {
    // The core guarantee: candidate refresh and window repair fan out
    // across selection workers, but every worker count — including
    // oversubscribed ones — produces bit-identical allocations AND
    // bit-identical deterministic run statistics, for both algorithms and
    // both sampling strategies.
    let inst = wc_instance(300, 3, 60.0, 0.2, 21);
    for kind in [AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm] {
        for sampling in [SamplingStrategy::FixedTheta, SamplingStrategy::OnlineBounds] {
            let base = ScalableConfig {
                sampling,
                selection_threads: 1,
                ..test_cfg(13)
            };
            let (a_seq, s_seq) = TiEngine::new(&inst, kind, base).run();
            assert!(a_seq.num_seeds() > 0, "{}: no seeds", kind.name());
            for threads in [2, 8] {
                let cfg = ScalableConfig {
                    selection_threads: threads,
                    ..base
                };
                let (a_par, s_par) = TiEngine::new(&inst, kind, cfg).run();
                assert_eq!(
                    a_seq,
                    a_par,
                    "{} {:?}: allocations differ at selection_threads={threads}",
                    kind.name(),
                    sampling
                );
                assert_eq!(
                    deterministic_stats(&s_seq),
                    deterministic_stats(&s_par),
                    "{} {:?}: run stats differ at selection_threads={threads}",
                    kind.name(),
                    sampling
                );
            }
        }
    }
}

#[test]
fn selection_thread_count_invariance_windowed_and_baselines() {
    // The windowed CS path caches multi-entry inspection windows (the
    // contention-rich case) and the PageRank baselines cache cursor
    // proposals; both must stay bit-identical across worker counts.
    let inst = wc_instance(300, 4, 45.0, 0.3, 33);
    for (kind, window) in [
        (AlgorithmKind::TiCsrm, Window::Size(8)),
        (AlgorithmKind::TiCsrm, Window::Size(1000)),
        (AlgorithmKind::PageRankGr, Window::Size(8)),
        (AlgorithmKind::PageRankRr, Window::Size(8)),
    ] {
        let base = ScalableConfig {
            window,
            selection_threads: 1,
            ..test_cfg(29)
        };
        let (a_seq, s_seq) = TiEngine::new(&inst, kind, base).run();
        for threads in [2, 8] {
            let cfg = ScalableConfig {
                selection_threads: threads,
                ..base
            };
            let (a_par, s_par) = TiEngine::new(&inst, kind, cfg).run();
            assert_eq!(
                a_seq,
                a_par,
                "{}: allocations differ at selection_threads={threads}",
                kind.name()
            );
            assert_eq!(
                deterministic_stats(&s_seq),
                deterministic_stats(&s_par),
                "{}: run stats differ at selection_threads={threads}",
                kind.name()
            );
        }
    }
}

/// Runs `cfg` twice — as configured, and with every cached candidate
/// forced invalid every round, so each window is pushed back and redrawn
/// from the heap (the pre-caching sequential engine's exact pattern) — and
/// requires identical allocations and engine outputs. The windows
/// themselves must agree round by round, so the contention counters are
/// compared too; refresh and evaluation counters are excluded: differing
/// is their purpose.
fn assert_caching_matches_refresh_every_round(
    inst: &RmInstance,
    kind: AlgorithmKind,
    cfg: ScalableConfig,
) -> (crate::RunStats, crate::RunStats) {
    let outputs = |s: &crate::RunStats| {
        (
            s.rounds,
            s.seeds_per_ad.clone(),
            s.theta_per_ad.clone(),
            s.latent_size_per_ad.clone(),
            s.revenue_per_ad.clone(),
            s.seeding_cost_per_ad.clone(),
            (
                s.rr_sets_sampled,
                s.sample_capped,
                s.bound_checks,
                s.budget_exhausted_ads,
                s.contended_rounds,
                s.invalidated_candidates,
            ),
        )
    };
    let forced_cfg = ScalableConfig {
        refresh_all_rounds: true,
        ..cfg
    };
    let (a_cached, s_cached) = TiEngine::new(inst, kind, cfg).run();
    let (a_forced, s_forced) = TiEngine::new(inst, kind, forced_cfg).run();
    let what = format!("{} {:?} {:?}", kind.name(), cfg.window, cfg.sampling);
    assert!(a_cached.num_seeds() > 0, "{what}: no seeds");
    assert_eq!(
        a_cached, a_forced,
        "{what}: caching changed the allocation vs refresh-every-round"
    );
    assert_eq!(
        outputs(&s_cached),
        outputs(&s_forced),
        "{what}: caching changed engine outputs vs refresh-every-round"
    );
    (s_cached, s_forced)
}

#[test]
fn caching_matches_refresh_every_round_semantics() {
    // In-repo oracle for the persistent windows: w = 1 (TI-CARM's shape),
    // a window smaller than the candidate pool (caches survive commits), a
    // window covering every live node (every commit hits every window, so
    // every round repairs), and the full-window ratio heap.
    let inst = wc_instance(300, 4, 60.0, 0.2, 33);
    let mut arms = Vec::new();
    for sampling in [SamplingStrategy::FixedTheta, SamplingStrategy::OnlineBounds] {
        for window in [
            Window::Size(1),
            Window::Size(8),
            Window::Size(1000),
            Window::Full,
        ] {
            arms.push((AlgorithmKind::TiCsrm, window, sampling));
        }
    }
    arms.extend([
        (
            AlgorithmKind::TiCarm,
            Window::Full,
            SamplingStrategy::FixedTheta,
        ),
        (
            AlgorithmKind::PageRankGr,
            Window::Full,
            SamplingStrategy::FixedTheta,
        ),
        (
            AlgorithmKind::PageRankRr,
            Window::Full,
            SamplingStrategy::FixedTheta,
        ),
    ]);
    for (kind, window, sampling) in arms {
        let cfg = ScalableConfig {
            window,
            sampling,
            ..test_cfg(29)
        };
        let (s_cached, s_forced) = assert_caching_matches_refresh_every_round(&inst, kind, cfg);
        let what = format!("{} {window:?} {sampling:?}", kind.name());
        // The fast path must actually have engaged for the heap-based
        // algorithms. Candidate caching: a window smaller than the live
        // pool survives most commits, so the ad skips refreshes the forced
        // sequential pattern makes. A window holding every live node is hit
        // by every commit (full contention), but its heap is drained, so
        // it keeps its proposal unless the commit took it. Every PageRank
        // proposal is hit (one shared candidate order), so only its
        // refresh counts may coincide.
        let heap_based = matches!(kind, AlgorithmKind::TiCsrm | AlgorithmKind::TiCarm);
        if heap_based {
            assert!(
                s_cached.candidate_refreshes < s_forced.candidate_refreshes,
                "{what}: candidate caching never engaged ({} vs {} refreshes)",
                s_cached.candidate_refreshes,
                s_forced.candidate_refreshes
            );
        } else {
            assert!(s_cached.candidate_refreshes <= s_forced.candidate_refreshes);
        }
        // Window repair: every heap-based arm, the full-contention one
        // included, draws only what a window lost instead of redrawing it.
        if heap_based {
            assert!(
                s_cached.candidate_evaluations < s_forced.candidate_evaluations,
                "{what}: window repair never engaged ({} vs {} evaluations)",
                s_cached.candidate_evaluations,
                s_forced.candidate_evaluations
            );
        }
    }
}

/// A topical TIC instance whose four ads share one pool group: two read
/// the founder's mixture, two read the shared sets through importance
/// weights — f64 coverage keys that reach the lazy heap's 1e-12 slack.
fn reweighted_tic_instance(n: usize, budget: f64, seed: u64) -> RmInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = Arc::new(generators::barabasi_albert(n, 3, &mut rng));
    let tic = Arc::new(TicModel::topical(&g, 2, Default::default(), &mut rng));
    reweighted_tic_tenants(g, tic, budget)
}

/// [`reweighted_tic_instance`]'s four tenants on a given graph and table.
fn reweighted_tic_tenants(
    g: Arc<rm_graph::CsrGraph>,
    tic: Arc<TicModel>,
    budget: f64,
) -> RmInstance {
    let ads = [[0.6, 0.4], [0.4, 0.6], [0.6, 0.4], [0.4, 0.6]]
        .iter()
        .map(|w| Advertiser::new(1.0, budget, TopicDistribution::new(w)))
        .collect();
    RmInstance::build_tic(
        g,
        tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        5,
    )
}

#[test]
fn caching_matches_refresh_every_round_on_reweighted_pool() {
    // Weighted keys are where a repaired window could drift from a redrawn
    // one (a re-validated key may sit up to 1e-12 below its stored one), so
    // equality is tested here rather than assumed from the integer case.
    let inst = reweighted_tic_instance(300, 40.0, 29);
    for window in [
        Window::Size(1),
        Window::Size(8),
        Window::Size(1000),
        Window::Full,
    ] {
        let cfg = ScalableConfig {
            window,
            ..pooled_cfg(17)
        };
        let (s_cached, _) =
            assert_caching_matches_refresh_every_round(&inst, AlgorithmKind::TiCsrm, cfg);
        assert_eq!(s_cached.reweighted_ads, 2);
    }
}

#[test]
fn candidate_caching_skips_unaffected_ads() {
    // With h ads the sequential engine re-evaluated every live ad every
    // round (refreshes ≈ h · rounds); the snapshot/arbiter loop only
    // refreshes the winner and the ads whose cached window the committed
    // node hit, so refreshes ≈ h + rounds + invalidations — far fewer on a
    // contention-light instance.
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    let rounds = stats.rounds as u64;
    assert!(rounds > 2, "instance too small to exercise caching");
    assert!(
        stats.candidate_refreshes < 3 * rounds,
        "caching broken: {} refreshes over {} rounds for 3 ads",
        stats.candidate_refreshes,
        rounds
    );
    // Refresh accounting: every refresh is the initial fill, a winner
    // re-evaluation, an invalidation, or a terminal None probe.
    assert!(
        stats.candidate_refreshes <= 3 + rounds + stats.invalidated_candidates + 3,
        "refreshes {} exceed fill(3) + rounds({rounds}) + invalidations({}) + retirement(3)",
        stats.candidate_refreshes,
        stats.invalidated_candidates
    );
    assert!(stats.contended_rounds <= rounds);
    assert!(stats.invalidated_candidates >= stats.contended_rounds);
}

#[test]
fn eager_ablation_still_reevaluates_every_round() {
    // The eager scan records no inspection window, so its proposals are
    // never cached — the ablation keeps its sequential semantics (and its
    // candidate-evaluation counts stay comparable to PR 4's).
    let inst = wc_instance(300, 2, 40.0, 0.2, 21);
    let cfg = ScalableConfig {
        lazy: false,
        ..test_cfg(3)
    };
    let (_, stats) = TiEngine::new(&inst, AlgorithmKind::TiCarm, cfg).run();
    let rounds = stats.rounds as u64;
    assert!(
        stats.candidate_refreshes >= 2 * rounds,
        "eager mode must refresh every live ad every round: {} refreshes, {} rounds",
        stats.candidate_refreshes,
        rounds
    );
}

fn pooled_cfg(seed: u64) -> ScalableConfig {
    ScalableConfig {
        rr_sharing: true,
        ..test_cfg(seed)
    }
}

#[test]
fn rr_sharing_pools_identical_ads_and_samples_sublinearly() {
    // Three ads with identical diffusion models: the shared pool must serve
    // all of them from ONE group arena, so the total RR sets sampled stay
    // near one private ad's θ instead of three.
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    let (_p_alloc, p_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    let (s_alloc, s_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, pooled_cfg(7)).run();
    assert!(s_alloc.num_seeds() > 0, "pooled run selected no seeds");
    assert_feasible(&inst, &s_alloc, &s_stats);
    assert!(s_stats.total_revenue() > 0.0);
    // Pool telemetry: one model-distinct group serving every ad, no
    // reweighting needed; the private run reports no pool at all.
    assert_eq!(s_stats.pool_groups, 1);
    assert_eq!(s_stats.pooled_ads, 3);
    assert_eq!(s_stats.reweighted_ads, 0);
    assert_eq!(p_stats.pool_groups, 0);
    assert_eq!(p_stats.pooled_ads, 0);
    // The accounting bugfix regime: shared sets are counted once by the
    // pool, never per tenant, so three identical tenants draw well under
    // the private run's 3·θ (sublinear growth in h — the fig5 claim).
    assert!(
        s_stats.rr_sets_sampled * 2 < p_stats.rr_sets_sampled,
        "pooled run drew {} sets vs {} private — sharing never engaged",
        s_stats.rr_sets_sampled,
        p_stats.rr_sets_sampled,
    );
    assert!(s_stats.rr_memory_bytes > 0);
}

#[test]
fn rr_sharing_deterministic_and_thread_invariant() {
    // Pooled runs must stay bit-identical across reruns AND across both
    // thread knobs: group arenas are stream-seeded and growth extends one
    // logical stream, so worker counts only change timing.
    let inst = wc_instance(300, 3, 60.0, 0.2, 21);
    let base = ScalableConfig {
        sampler_threads: 1,
        selection_threads: 1,
        ..pooled_cfg(13)
    };
    let (a_base, s_base) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, base).run();
    assert!(a_base.num_seeds() > 0);
    assert_eq!(s_base.pooled_ads, 3);
    let (a_again, s_again) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, base).run();
    assert_eq!(a_base, a_again, "pooled run not reproducible");
    assert_eq!(deterministic_stats(&s_base), deterministic_stats(&s_again));
    for (samplers, selectors) in [(4, 1), (1, 8), (4, 8)] {
        let cfg = ScalableConfig {
            sampler_threads: samplers,
            selection_threads: selectors,
            ..base
        };
        let (a_par, s_par) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        assert_eq!(
            a_base, a_par,
            "pooled allocation differs at sampler_threads={samplers} selection_threads={selectors}"
        );
        assert_eq!(
            deterministic_stats(&s_base),
            deterministic_stats(&s_par),
            "pooled stats differ at sampler_threads={samplers} selection_threads={selectors}"
        );
    }
}

#[test]
fn rr_sharing_reweighted_tic_is_deterministic_and_thread_invariant() {
    // The reweighted sibling of the IC test above: a topical TIC table,
    // the reference mixture twice and one non-reference mixture twice, so
    // the group grows through the traced batch with one shared weight
    // column. θ spans several 1,024-set steal blocks, so the sampler
    // thread settings really reach the parallel traced path.
    let mut rng = SmallRng::seed_from_u64(29);
    let g = Arc::new(generators::barabasi_albert(300, 3, &mut rng));
    let tic = Arc::new(TicModel::topical(&g, 2, Default::default(), &mut rng));
    let ads = [[0.6, 0.4], [0.4, 0.6], [0.6, 0.4], [0.4, 0.6]]
        .iter()
        .map(|w| Advertiser::new(1.0, 40.0, TopicDistribution::new(w)))
        .collect();
    let inst = RmInstance::build_tic(
        Arc::clone(&g),
        tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        5,
    );
    let base = ScalableConfig {
        sampler_threads: 1,
        selection_threads: 1,
        ..pooled_cfg(17)
    };
    let (a_base, s_base) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, base).run();
    assert!(a_base.num_seeds() > 0);
    assert_eq!(s_base.pool_groups, 1);
    assert_eq!(s_base.pooled_ads, 4);
    assert_eq!(s_base.reweighted_ads, 2);
    let theta = s_base.theta_per_ad.iter().copied().max().unwrap_or(0);
    assert!(theta > 3 * 1024, "θ = {theta} stays inside one steal block");
    for (samplers, selectors) in [(4, 1), (1, 8), (4, 8)] {
        let cfg = ScalableConfig {
            sampler_threads: samplers,
            selection_threads: selectors,
            ..base
        };
        let (a_par, s_par) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        assert_eq!(
            a_base, a_par,
            "reweighted allocation differs at sampler_threads={samplers} \
             selection_threads={selectors}"
        );
        assert_eq!(
            deterministic_stats(&s_base),
            deterministic_stats(&s_par),
            "reweighted stats differ at sampler_threads={samplers} \
             selection_threads={selectors}"
        );
    }
}

#[test]
fn rr_sharing_runs_under_online_bounds() {
    // OnlineBounds + pooling: selection sets come from the shared arena but
    // every ad keeps a PRIVATE validation stream (the stopping rule's
    // unbiasedness needs draws independent of the shared selection sample).
    let inst = wc_instance(400, 3, 60.0, 0.2, 42);
    let cfg = ScalableConfig {
        rr_sharing: true,
        ..online_cfg(7)
    };
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    assert!(alloc.num_seeds() > 0, "no seeds under pooled OnlineBounds");
    assert_feasible(&inst, &alloc, &stats);
    assert!(stats.bound_checks > 0, "stopping rule never evaluated");
    assert_eq!(stats.pool_groups, 1);
    assert_eq!(stats.pooled_ads, 3);
    let (again, s_again) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    assert_eq!(alloc, again, "pooled OnlineBounds run not reproducible");
    assert_eq!(stats.rr_sets_sampled, s_again.rr_sets_sampled);
}

#[test]
fn rr_sharing_reweights_distinct_tic_mixtures() {
    // Two ads over ONE shared topical TIC table with different (strictly
    // positive) mixtures: the pool must keep them in one group, serve the
    // founder unweighted and the second ad through importance weights.
    let mut rng = SmallRng::seed_from_u64(19);
    let g = Arc::new(generators::barabasi_albert(300, 3, &mut rng));
    let tic = Arc::new(TicModel::topical(&g, 2, Default::default(), &mut rng));
    let ads = vec![
        Advertiser::new(1.0, 40.0, TopicDistribution::new(&[0.6, 0.4])),
        Advertiser::new(1.0, 40.0, TopicDistribution::new(&[0.4, 0.6])),
    ];
    let inst = RmInstance::build_tic(
        Arc::clone(&g),
        tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        5,
    );
    let (_p_alloc, p_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(9)).run();
    let (s_alloc, s_stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, pooled_cfg(9)).run();
    assert!(
        s_alloc.num_seeds() > 0,
        "reweighted pooled run chose nothing"
    );
    assert_feasible(&inst, &s_alloc, &s_stats);
    assert_eq!(s_stats.pool_groups, 1);
    assert_eq!(s_stats.pooled_ads, 2);
    assert_eq!(s_stats.reweighted_ads, 1);
    assert_eq!(p_stats.reweighted_ads, 0);
    // One arena sized to the larger tenant demand beats two private streams.
    assert!(
        s_stats.rr_sets_sampled < p_stats.rr_sets_sampled,
        "reweighted pool drew {} sets vs {} private",
        s_stats.rr_sets_sampled,
        p_stats.rr_sets_sampled,
    );
    // The importance-weighted estimates stay in the private run's ballpark
    // (both estimate the same revenues; only the estimator differs).
    let (p_rev, s_rev) = (p_stats.total_revenue(), s_stats.total_revenue());
    assert!(
        (p_rev - s_rev).abs() <= 0.35 * p_rev.max(s_rev),
        "reweighted revenue estimate {s_rev} far from private {p_rev}"
    );
    let (again, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, pooled_cfg(9)).run();
    assert_eq!(s_alloc, again, "reweighted pooled run not reproducible");
}

#[test]
fn terminal_memory_counts_each_component_exactly_once() {
    // Table-3 accounting audit (exact, not a smoke bound): the terminal
    // per-ad tally must be the sum of the compacted selection index, the
    // prepared sampler tables, and — under OnlineBounds — the compacted
    // validation index, each appearing exactly once. Built by hand so the
    // expected sum is computable from the components themselves. Both
    // indexes hold covered and tombstoned sets that no rebuild has dropped
    // yet, so the tally must count the compact form, not the storage.
    use super::ad_state::OpimAdState;
    use super::epoch::terminal_ad_bytes;
    use rm_rrsets::{
        KptEstimator, LazyGreedyHeap, PreparedSampler, RrArena, RrCoverage, StoppingRule, TimConfig,
    };

    let inst = wc_instance(200, 1, 40.0, 0.2, 5);
    let g = &inst.graph;
    let n = g.num_nodes();
    let sampler = PreparedSampler::for_model(g, &inst.model(0));
    let tim = TimConfig::default();
    let kpt = KptEstimator::estimate_with_sampler(g, &sampler, 1, &tim, 7);
    let theta = 500usize;
    let no_seeds = vec![false; n];
    // The best-covered node of `cov`, skipping `not`.
    let top = |cov: &RrCoverage, not: Option<u32>| {
        (0..n as u32)
            .filter(|&v| Some(v) != not)
            .max_by_key(|&v| cov.coverage(v))
            .expect("non-empty graph")
    };
    let mut cov = RrCoverage::new(n);
    let (sets, _) = sampler.sample_batch(g, theta, 11, 0);
    cov.add_batch(&sets, &no_seeds);
    let seed = top(&cov, None);
    assert!(cov.cover_with(seed) > 0, "the seed covers nothing");
    assert!(cov.tombstone_containing(top(&cov, Some(seed))) > 0);
    let mut val_cov = RrCoverage::new(n);
    let (val_sets, _) = sampler.sample_batch(g, theta, 13, 0);
    val_cov.add_batch(&val_sets, &no_seeds);
    val_cov.cover_with(seed);
    assert!(val_cov.tombstone_containing(top(&val_cov, Some(seed))) > 0);
    let mut is_seed = vec![false; n];
    is_seed[seed as usize] = true;
    let mut st = super::ad_state::AdState {
        idx: 0,
        sampler,
        cov,
        theta,
        s_latent: 1,
        kpt,
        seeds: vec![seed],
        is_seed,
        cost_total: 0.0,
        heap: LazyGreedyHeap::default(),
        window: Vec::new(),
        window_spare: Vec::new(),
        pr_order: Vec::new(),
        pr_cursor: 0,
        exhausted: false,
        candidate: None,
        sample_seed: 11,
        samples: 2 * theta as u64,
        capped: false,
        bound_checks: 0,
        opim: Some(OpimAdState {
            val_cov,
            val_seed: 13,
            theta_cap: 4 * theta,
            rule: StoppingRule::new(n, 0.3, 1.0),
        }),
        sel_sets: RrArena::new(),
        val_sets: RrArena::new(),
    };
    let compacted = |cov: &RrCoverage| {
        let mut cov = cov.clone();
        cov.compact();
        cov.memory_bytes()
    };
    let sel_bytes = compacted(&st.cov);
    assert!(
        sel_bytes < st.cov.memory_bytes(),
        "covered and tombstoned sets should still hold storage"
    );
    let with_val = terminal_ad_bytes(&st);
    // Nothing dropped, nothing doubled, and no stale storage counted.
    let op = st.opim.as_ref().expect("opim state still present");
    let val_bytes = compacted(&op.val_cov);
    assert!(val_bytes < op.val_cov.memory_bytes());
    assert_eq!(
        with_val,
        sel_bytes + st.sampler.memory_bytes() + val_bytes,
        "terminal tally is not the compacted component sum"
    );
    assert!(val_bytes > 0, "validation index reported as empty");
    // Dropping the validation state must remove exactly its bytes: the
    // regression this guards is double-counting (or omitting) val_cov.
    st.opim = None;
    let without_val = terminal_ad_bytes(&st);
    assert_eq!(
        with_val - without_val,
        val_bytes,
        "validation index not counted exactly once"
    );
    assert_eq!(without_val, sel_bytes + st.sampler.memory_bytes());
}

#[test]
fn topical_instance_allocates_competing_pairs() {
    // Two ads in pure competition on a 10-topic TIC model: their seed sets
    // must still be disjoint, and both should earn revenue.
    let mut rng = SmallRng::seed_from_u64(71);
    let g = Arc::new(generators::barabasi_albert(400, 3, &mut rng));
    let tic = TicModel::topical(&g, 10, Default::default(), &mut rng);
    let topics = TopicDistribution::competition_pairs(2, 10, 0.91, &mut rng);
    let ads = topics
        .into_iter()
        .map(|t| Advertiser::new(1.0, 40.0, t))
        .collect();
    let inst = RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        3,
    );
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(9)).run();
    assert!(alloc.is_disjoint());
    assert!(stats.revenue_per_ad.iter().all(|&r| r > 0.0));
}

// ---------------------------------------------------------------------------
// Resident engine: incremental arrivals, departures and graph deltas.
// ---------------------------------------------------------------------------

use super::{GraphDelta, ResidentEngine, ResidentError, ServeOp};

/// Like [`wc_instance`] but over an explicit edge list, so a test can build
/// the pre- and post-delta instances of the *same* advertiser population.
fn wc_edges_instance(
    n: usize,
    edges: &[(rm_graph::NodeId, rm_graph::NodeId)],
    h: usize,
    budget: f64,
    alpha: f64,
    seed: u64,
) -> RmInstance {
    let g = Arc::new(rm_graph::builder::graph_from_edges(n, edges));
    let tic = TicModel::weighted_cascade(&g);
    let ads = (0..h)
        .map(|_| Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha },
        SingletonMethod::RrEstimate { theta: 20_000 },
        seed ^ 0x1111,
    )
}

/// The BA edge list [`wc_instance`]'s graph is built from.
fn ba_edges(n: usize, seed: u64) -> Vec<(rm_graph::NodeId, rm_graph::NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = generators::barabasi_albert(n, 3, &mut rng);
    g.edges().map(|(_, u, v)| (u, v)).collect()
}

#[test]
fn resident_arrival_order_converges_near_batch() {
    // Equivalence suite: several scripted arrival orders, each admitted one
    // advertiser at a time; the incremental end state must land within ε of
    // the cold batch recompute on the same final tenant set. (Bit-identity
    // is only promised for the all-at-once admission the batch wrapper
    // performs — early arrivers commit seeds without later competition.)
    let inst = Arc::new(wc_instance(300, 3, 60.0, 0.2, 42));
    let (_, batch) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, test_cfg(7)).run();
    for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
        let mut eng =
            ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, test_cfg(7)).unwrap();
        for ad in order {
            let ev = eng.add_advertiser(ad).unwrap();
            assert_eq!(ev.op, ServeOp::Arrival { ads: vec![ad] });
            assert_eq!(ev.invalidated_sets, 0, "arrivals invalidate nothing");
        }
        assert_eq!(eng.active_ads(), 3);
        assert_eq!(eng.events().len(), 3);
        let (alloc, stats) = eng.finish();
        assert_feasible(&inst, &alloc, &stats);
        let rel = (stats.total_revenue() - batch.total_revenue()).abs() / batch.total_revenue();
        assert!(
            rel < 0.15,
            "arrival order {order:?}: incremental revenue {} vs batch {} (rel {rel:.3})",
            stats.total_revenue(),
            batch.total_revenue(),
        );
    }
}

#[test]
fn resident_script_replay_is_deterministic_and_thread_invariant() {
    // Same script + same seed ⇒ bit-identical event log and final
    // allocation, at selection_threads ∈ {1, 8}. The script exercises batch
    // arrival, single arrival, departure and re-arrival.
    let inst = Arc::new(wc_instance(300, 3, 60.0, 0.2, 9));
    let run = |threads: usize| {
        let cfg = ScalableConfig {
            selection_threads: threads,
            ..test_cfg(5)
        };
        let mut eng = ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, cfg).unwrap();
        eng.add_advertisers(&[0, 1]).unwrap();
        eng.add_advertiser(2).unwrap();
        eng.remove_advertiser(1).unwrap();
        eng.add_advertiser(1).unwrap();
        let events = eng.events().to_vec();
        let (alloc, stats) = eng.finish();
        (events, alloc, stats)
    };
    let (ev1, al1, st1) = run(1);
    for _ in 0..2 {
        let (ev8, al8, st8) = run(8);
        assert_eq!(ev1, ev8, "event logs differ across selection thread counts");
        assert_eq!(
            al1, al8,
            "allocations differ across selection thread counts"
        );
        assert_eq!(
            deterministic_stats(&st1),
            deterministic_stats(&st8),
            "stats differ across selection thread counts"
        );
    }
    // The departure released its seeds and the re-arrival re-admitted the
    // ad; the end state must be a full three-tenant allocation again.
    assert!(ev1[2].seeds_total < ev1[1].seeds_total || ev1[1].seeds_total == 0);
    assert!(st1.seeds_per_ad.iter().all(|&s| s > 0));
    assert_feasible(&inst, &al1, &st1);
}

#[test]
fn resident_departure_frees_seeds_for_survivors() {
    // After a departure, nodes the departed ad held become assignable: the
    // survivors' re-run must be able to pick them up (seed counts can only
    // grow — their budgets had headroom exactly where contention bit).
    let inst = Arc::new(wc_instance(300, 2, 40.0, 0.2, 21));
    let mut eng =
        ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, test_cfg(3)).unwrap();
    eng.add_advertisers(&[0, 1]).unwrap();
    let before = eng.allocation();
    let ev = eng.remove_advertiser(0).unwrap();
    assert_eq!(ev.op, ServeOp::Departure { ad: 0 });
    assert_eq!(eng.active_ads(), 1);
    let after = eng.allocation();
    assert!(after.seeds[0].is_empty(), "departed ad keeps no seeds");
    assert!(
        after.seeds[1].len() >= before.seeds[1].len(),
        "survivor lost seeds on a departure"
    );
    let (alloc, stats) = eng.finish();
    assert!(alloc.is_disjoint());
    assert_eq!(stats.seeds_per_ad[0], 0);
}

#[test]
fn resident_graph_delta_resamples_only_the_invalidated_fraction() {
    // The tentpole's delta contract, end to end: an edge-removal delta must
    // repair the engine by resampling *only* the RR sets whose traces could
    // have touched the changed edge — counted in RunStats and strictly
    // below the full θ a cold rebuild would redraw. Exercised on both the
    // private-stream path and the shared-pool path.
    let n = 300;
    let h = 2;
    let edges = ba_edges(n, 42);
    let &(u, v) = edges.last().unwrap();
    let new_edges: Vec<_> = edges[..edges.len() - 1].to_vec();
    let delta = GraphDelta {
        inserts: Vec::new(),
        removes: vec![(u, v)],
    };
    for cfg in [test_cfg(7), pooled_cfg(7)] {
        let inst = Arc::new(wc_edges_instance(n, &edges, h, 60.0, 0.2, 42));
        let new_inst = Arc::new(wc_edges_instance(n, &new_edges, h, 60.0, 0.2, 42));
        let mut eng = ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, cfg).unwrap();
        eng.add_advertisers(&[0, 1]).unwrap();
        let ev = eng
            .apply_graph_delta(Arc::clone(&new_inst), &delta)
            .unwrap();
        assert_eq!(
            ev.op,
            ServeOp::GraphDelta {
                inserts: 0,
                removes: 1
            }
        );
        assert_eq!(ev.invalidated_sets, ev.resampled_sets);
        let (alloc, stats) = eng.finish();
        assert!(
            stats.delta_invalidated_sets > 0,
            "a removed edge's target must appear in some RR sets"
        );
        assert!(
            (stats.delta_invalidated_sets as usize) < stats.total_theta(),
            "delta repair resampled {} of {} sets — no better than a rebuild",
            stats.delta_invalidated_sets,
            stats.total_theta(),
        );
        assert!(alloc.is_disjoint());
        // The repaired estimates live on the new graph: the end state must
        // be in the cold recompute's neighborhood (not bit-identical — the
        // resident engine keeps its committed seeds and pre-delta θ).
        let (_, cold) = TiEngine::new(&new_inst, AlgorithmKind::TiCsrm, cfg).run();
        let rel = (stats.total_revenue() - cold.total_revenue()).abs() / cold.total_revenue();
        assert!(
            rel < 0.15,
            "post-delta revenue {} vs cold {} (rel {rel:.3}, sharing={})",
            stats.total_revenue(),
            cold.total_revenue(),
            cfg.rr_sharing,
        );
    }
}

#[test]
fn resident_graph_delta_replay_is_deterministic() {
    // Delta repair replays per-set RNG streams, so the whole script —
    // admission, delta, convergence — must reproduce bit-identically, and
    // under OnlineBounds the private validation stream must be repaired too.
    // The batched repair resamples on up to `sampler_threads` workers, so
    // the sequential and work-stealing paths must agree as well.
    let n = 300;
    let edges = ba_edges(n, 9);
    let &(u, v) = edges.last().unwrap();
    let new_edges: Vec<_> = edges[..edges.len() - 1].to_vec();
    let delta = GraphDelta {
        inserts: Vec::new(),
        removes: vec![(u, v)],
    };
    let inst = Arc::new(wc_edges_instance(n, &edges, 2, 40.0, 0.2, 9));
    let new_inst = Arc::new(wc_edges_instance(n, &new_edges, 2, 40.0, 0.2, 9));
    let run = |sampler_threads: usize| {
        let cfg = ScalableConfig {
            sampler_threads,
            ..online_cfg(5)
        };
        let mut eng = ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, cfg).unwrap();
        eng.add_advertisers(&[0, 1]).unwrap();
        eng.apply_graph_delta(Arc::clone(&new_inst), &delta)
            .unwrap();
        let events = eng.events().to_vec();
        let (alloc, stats) = eng.finish();
        (events, alloc, stats)
    };
    let (ev1, al1, st1) = run(1);
    let (ev2, al2, st2) = run(1);
    assert_eq!(ev1, ev2, "delta replay event logs differ across runs");
    assert_eq!(al1, al2);
    assert_eq!(deterministic_stats(&st1), deterministic_stats(&st2));
    let (ev8, al8, st8) = run(8);
    assert_eq!(
        ev1, ev8,
        "delta replay event logs differ across sampler threads"
    );
    assert_eq!(al1, al8);
    assert_eq!(deterministic_stats(&st1), deterministic_stats(&st8));
    assert!(st1.delta_invalidated_sets > 0);
    assert!(st1.bound_checks > 0, "OnlineBounds path not exercised");
}

/// [`reweighted_tic_instance`]'s tenants over an explicit edge list, so a
/// test can build pre- and post-delta TIC instances. The topic table is
/// drawn from `seed` on each graph.
fn tic_edges_instance(
    n: usize,
    edges: &[(rm_graph::NodeId, rm_graph::NodeId)],
    budget: f64,
    seed: u64,
) -> RmInstance {
    let g = Arc::new(rm_graph::builder::graph_from_edges(n, edges));
    let mut rng = SmallRng::seed_from_u64(seed);
    let tic = Arc::new(TicModel::topical(&g, 2, Default::default(), &mut rng));
    reweighted_tic_tenants(g, tic, budget)
}

#[test]
fn resident_concurrent_delta_repair_is_sampler_thread_invariant() {
    // A graph delta repairs its active ads concurrently, on up to
    // `sampler_threads` workers (`sampler_threads: 1` is the sequential
    // path). With three and then four active ads, both widths must replay
    // bit-identically: private fixed-θ and OnlineBounds streams, and a
    // pool holding identical and reweighted TIC tenants.
    let n = 300;
    let edges = ba_edges(n, 13);
    let (kept, moved) = edges.split_at(edges.len() - 8);
    let delta_out = GraphDelta {
        inserts: Vec::new(),
        removes: moved.to_vec(),
    };
    let delta_back = GraphDelta {
        inserts: moved.to_vec(),
        removes: Vec::new(),
    };
    let ic = |e: &[_]| Arc::new(wc_edges_instance(n, e, 4, 45.0, 0.2, 13));
    let tic = |e: &[_]| Arc::new(tic_edges_instance(n, e, 40.0, 13));
    for (full, cut, base) in [
        (ic(&edges), ic(kept), test_cfg(5)),
        (ic(&edges), ic(kept), online_cfg(5)),
        (tic(&edges), tic(kept), pooled_cfg(5)),
    ] {
        let run = |sampler_threads: usize| {
            let cfg = ScalableConfig {
                sampler_threads,
                ..base
            };
            let mut eng =
                ResidentEngine::new(Arc::clone(&full), AlgorithmKind::TiCsrm, cfg).unwrap();
            eng.add_advertisers(&[0, 1, 2]).unwrap();
            eng.apply_graph_delta(Arc::clone(&cut), &delta_out).unwrap();
            eng.add_advertiser(3).unwrap();
            eng.apply_graph_delta(Arc::clone(&full), &delta_back)
                .unwrap();
            let events = eng.events().to_vec();
            let (alloc, stats) = eng.finish();
            (events, alloc, stats)
        };
        let (ev1, al1, st1) = run(1);
        let (ev8, al8, st8) = run(8);
        let what = format!("{:?} pooled={}", base.sampling, base.rr_sharing);
        assert_eq!(ev1, ev8, "{what}: event logs differ across sampler threads");
        assert_eq!(
            al1, al8,
            "{what}: allocations differ across sampler threads"
        );
        assert_eq!(
            deterministic_stats(&st1),
            deterministic_stats(&st8),
            "{what}: stats differ across sampler threads"
        );
        assert_eq!(st1.delta_invalidated_sets, st8.delta_invalidated_sets);
        assert!(
            [&ev1[1], &ev1[3]].iter().all(|e| e.invalidated_sets > 0),
            "{what}: a delta invalidated nothing"
        );
        assert!(ev1.iter().all(|e| e.seeds_total > 0));
        if base.sampling == SamplingStrategy::OnlineBounds {
            assert!(st1.bound_checks > 0, "OnlineBounds path not exercised");
        }
        if base.rr_sharing {
            assert_eq!((st1.pooled_ads, st1.reweighted_ads), (4, 2));
        }
    }
}

#[test]
fn resident_script_matches_refresh_every_round_event_for_event() {
    // Windows persist across resident operations too: arrivals add
    // competition, departures and graph deltas rebuild heaps (dropping the
    // windows). A script mixing all three must replay event for event
    // against the path that redraws every window from the heap each round.
    let n = 300;
    let edges = ba_edges(n, 21);
    let cut = edges.len() - 6;
    let (kept, moved) = edges.split_at(cut);
    let delta_out = GraphDelta {
        inserts: Vec::new(),
        removes: moved.to_vec(),
    };
    let delta_back = GraphDelta {
        inserts: moved.to_vec(),
        removes: Vec::new(),
    };
    let full = Arc::new(wc_edges_instance(n, &edges, 4, 45.0, 0.2, 21));
    let cut_inst = Arc::new(wc_edges_instance(n, kept, 4, 45.0, 0.2, 21));
    let run = |cfg: ScalableConfig| {
        let mut eng = ResidentEngine::new(Arc::clone(&full), AlgorithmKind::TiCsrm, cfg).unwrap();
        eng.add_advertisers(&[0, 2]).unwrap();
        eng.add_advertiser(1).unwrap();
        eng.apply_graph_delta(Arc::clone(&cut_inst), &delta_out)
            .unwrap();
        eng.remove_advertiser(2).unwrap();
        eng.add_advertiser(3).unwrap();
        eng.apply_graph_delta(Arc::clone(&full), &delta_back)
            .unwrap();
        eng.add_advertiser(2).unwrap();
        let events = eng.events().to_vec();
        let (alloc, stats) = eng.finish();
        (events, alloc, stats)
    };
    for cfg in [
        ScalableConfig {
            window: Window::Size(8),
            ..test_cfg(5)
        },
        ScalableConfig {
            window: Window::Size(1000),
            ..pooled_cfg(5)
        },
        ScalableConfig {
            window: Window::Size(8),
            ..online_cfg(5)
        },
    ] {
        let (ev, alloc, stats) = run(cfg);
        let (ev_forced, alloc_forced, stats_forced) = run(ScalableConfig {
            refresh_all_rounds: true,
            ..cfg
        });
        assert_eq!(ev.len(), 7);
        assert!(ev.iter().all(|e| e.seeds_total > 0));
        assert_eq!(ev, ev_forced, "{cfg:?}: event logs differ");
        assert_eq!(alloc, alloc_forced, "{cfg:?}: allocations differ");
        assert_eq!(stats.revenue_per_ad, stats_forced.revenue_per_ad);
        assert_eq!(
            stats.invalidated_candidates,
            stats_forced.invalidated_candidates
        );
        assert!(stats.candidate_evaluations < stats_forced.candidate_evaluations);
    }
}

#[test]
fn resident_rejects_invalid_operations_with_typed_errors() {
    let inst = Arc::new(wc_instance(200, 2, 40.0, 0.2, 5));
    let bad = ScalableConfig {
        sampler_threads: 0,
        ..test_cfg(1)
    };
    assert!(matches!(
        ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, bad),
        Err(ResidentError::InvalidConfig(_))
    ));
    assert!(TiEngine::try_new(&inst, AlgorithmKind::TiCsrm, bad).is_err());

    let mut eng =
        ResidentEngine::new(Arc::clone(&inst), AlgorithmKind::TiCsrm, test_cfg(1)).unwrap();
    assert_eq!(
        eng.add_advertiser(2).unwrap_err(),
        ResidentError::AdOutOfRange(2)
    );
    assert_eq!(
        eng.add_advertisers(&[0, 0]).unwrap_err(),
        ResidentError::DuplicateAd(0)
    );
    assert_eq!(
        eng.remove_advertiser(1).unwrap_err(),
        ResidentError::AdNotActive(1)
    );
    eng.add_advertiser(0).unwrap();
    assert_eq!(
        eng.add_advertiser(0).unwrap_err(),
        ResidentError::AdAlreadyActive(0)
    );
    // A failed operation must leave no trace in the event log.
    assert_eq!(eng.events().len(), 1);

    // Delta endpoints past the node count are refused before the instance
    // swap, leaving the engine untouched and still serving.
    let (events, alloc, stats) = (eng.events().to_vec(), eng.allocation(), eng.stats().clone());
    for delta in [
        GraphDelta {
            inserts: vec![(0, 200)],
            removes: Vec::new(),
        },
        GraphDelta {
            inserts: Vec::new(),
            removes: vec![(200, 1)],
        },
    ] {
        assert_eq!(
            eng.apply_graph_delta(Arc::clone(&inst), &delta)
                .unwrap_err(),
            ResidentError::NodeOutOfRange(200)
        );
        assert_eq!(eng.events(), &events[..]);
        assert_eq!(eng.allocation(), alloc);
        assert_eq!(eng.stats(), &stats);
    }
    let valid = GraphDelta {
        inserts: vec![(0, 199)],
        removes: Vec::new(),
    };
    assert!(eng.apply_graph_delta(Arc::clone(&inst), &valid).is_ok());
    assert_eq!(eng.events().len(), 2);

    let mismatched = Arc::new(wc_instance(200, 3, 40.0, 0.2, 5));
    assert_eq!(
        eng.apply_graph_delta(mismatched, &GraphDelta::default())
            .unwrap_err(),
        ResidentError::InstanceMismatch
    );

    // An instance whose models or incentives do not fit its own graph is
    // refused, as a post-delta instance and at construction, before any
    // state is touched: the sampler gather and the selection heap would
    // index past it.
    let mut short_probs = (*inst).clone();
    short_probs.ad_probs.pop();
    let mut wrong_edges = (*inst).clone();
    wrong_edges.ad_probs[1] = rm_diffusion::AdProbs::from_vec(vec![0.1; 3]);
    let mut lt_wrong_edges = (*inst)
        .clone()
        .with_diffusion(rm_diffusion::DiffusionKind::LinearThreshold);
    lt_wrong_edges.ad_probs[0] = rm_diffusion::AdProbs::from_vec(Vec::new());
    let mut tic_without_table = (*inst).clone();
    tic_without_table.diffusion = rm_diffusion::DiffusionKind::TopicAwareCascade;
    tic_without_table.tic = None;
    let mut short_incentives = (*inst).clone();
    short_incentives.incentives.pop();
    let (events, alloc, stats) = (eng.events().to_vec(), eng.allocation(), eng.stats().clone());
    for bad in [
        short_probs,
        wrong_edges,
        lt_wrong_edges,
        tic_without_table,
        short_incentives,
    ] {
        let bad = Arc::new(bad);
        for cfg in [test_cfg(1), pooled_cfg(1)] {
            assert!(matches!(
                ResidentEngine::new(Arc::clone(&bad), AlgorithmKind::TiCsrm, cfg),
                Err(ResidentError::InstanceMismatch)
            ));
        }
        assert_eq!(
            eng.apply_graph_delta(bad, &GraphDelta::default())
                .unwrap_err(),
            ResidentError::InstanceMismatch
        );
        assert_eq!(eng.events(), &events[..]);
        assert_eq!(eng.allocation(), alloc);
        assert_eq!(eng.stats(), &stats);
    }
    assert!(eng.apply_graph_delta(Arc::clone(&inst), &valid).is_ok());
    assert_eq!(eng.events().len(), 3);

    // The batch wrapper's engine runs without retained sets: graph deltas
    // must be refused, not silently mis-repaired.
    let mut batch_eng = ResidentEngine::for_batch(&inst, AlgorithmKind::TiCsrm, test_cfg(1));
    batch_eng.add_advertisers(&[0, 1]).unwrap();
    assert_eq!(
        batch_eng
            .apply_graph_delta(Arc::clone(&inst), &GraphDelta::default())
            .unwrap_err(),
        ResidentError::SetsNotRetained
    );
}

// ---------------------------------------------------------------------------
// Seeded random resident scripts.
// ---------------------------------------------------------------------------

/// One operation of a generated resident script.
#[derive(Clone, Debug)]
enum ScriptOp {
    Arrive(usize),
    Depart(usize),
    /// Removes the listed edges and inserts the others.
    Delta(GraphDelta),
}

/// Ads of a script instance.
const SCRIPT_ADS: usize = 4;

/// Decodes raw draws into a script over [`SCRIPT_ADS`] ads on the edge
/// list `edges`: an opening arrival, then arrivals, departures and one to
/// three graph deltas in the drawn order. A departure never empties the
/// engine, and each delta removes two to five present edges and re-inserts
/// up to two removed ones. Returns the script and the final edge list.
fn decode_script(
    raw: &[u32],
    edges: &[(rm_graph::NodeId, rm_graph::NodeId)],
) -> (Vec<ScriptOp>, Vec<(rm_graph::NodeId, rm_graph::NodeId)>) {
    let mut edges = edges.to_vec();
    let mut removed = Vec::new();
    let mut active = [false; SCRIPT_ADS];
    let deltas_wanted = 1 + raw[0] as usize % 3;
    let mut deltas = 0;
    let mut ops = Vec::new();
    for (i, &r) in raw[1..].iter().enumerate() {
        let left = raw.len() - 2 - i;
        let (kind, x) = (r % 3, (r / 3) as usize);
        let live: Vec<usize> = (0..SCRIPT_ADS).filter(|&a| active[a]).collect();
        let idle: Vec<usize> = (0..SCRIPT_ADS).filter(|&a| !active[a]).collect();
        let must_delta = deltas < deltas_wanted && left < deltas_wanted - deltas;
        let op = if !live.is_empty() && (must_delta || (kind == 2 && deltas < deltas_wanted)) {
            deltas += 1;
            let mut delta = GraphDelta::default();
            for k in 0..(x / 7) % 3 {
                if !removed.is_empty() {
                    let at = (x / 3 + k) % removed.len();
                    delta.inserts.push(removed.swap_remove(at));
                }
            }
            for k in 0..2 + x % 4 {
                let at = (x / 4 + 97 * k) % edges.len();
                delta.removes.push(edges.swap_remove(at));
            }
            removed.extend(&delta.removes);
            edges.extend(&delta.inserts);
            ScriptOp::Delta(delta)
        } else if live.len() >= 2 && (kind == 1 || idle.is_empty()) {
            let a = live[x % live.len()];
            active[a] = false;
            ScriptOp::Depart(a)
        } else {
            let a = idle[x % idle.len()];
            active[a] = true;
            ScriptOp::Arrive(a)
        };
        ops.push(op);
    }
    (ops, edges)
}

/// A script instance on `edges` for the ads `tenants`: identical Weighted
/// Cascade ads for private streams, or two-topic TIC ads whose mixtures
/// alternate by ad id — reweighted pool tenants — for a pooled config.
/// Edge probabilities depend only on the edge and its target's in-degree,
/// so a delta changes exactly the in-edges of its edges' targets.
fn script_instance(
    edges: &[(rm_graph::NodeId, rm_graph::NodeId)],
    tenants: &[usize],
    pooled: bool,
) -> RmInstance {
    let n = 300;
    if !pooled {
        return wc_edges_instance(n, edges, tenants.len(), 45.0, 0.2, 13);
    }
    let g = Arc::new(rm_graph::builder::graph_from_edges(n, edges));
    let probs: Vec<f32> = g
        .edges()
        .flat_map(|(_, u, v)| {
            let d = g.in_degree(v) as f32;
            let h = rm_graph::seed::mix64(u64::from(u) << 32 | u64::from(v));
            let f = 0.2 + 0.8 * (h >> 40) as f32 / (1u32 << 24) as f32;
            [1.0 / d, f / d]
        })
        .collect();
    let tic = Arc::new(TicModel::from_matrix(&g, 2, probs));
    let ads = tenants
        .iter()
        .map(|&a| {
            let w = if a % 2 == 0 { [0.6, 0.4] } else { [0.4, 0.6] };
            Advertiser::new(1.0, 45.0, TopicDistribution::new(&w))
        })
        .collect();
    RmInstance::build_tic(
        g,
        tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 20_000 },
        13,
    )
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

    /// Random scripts of arrivals, departures and graph deltas, under private
    /// and pooled streams and both sampling strategies: each replays
    /// bit-identically at `sampler_threads` 1 and 8, and ends within the
    /// arrival-order suite's 0.15 relative revenue of a cold batch run on
    /// the final tenants and graph.
    #[test]
    fn resident_random_scripts_replay_and_converge_near_cold(
        raw in proptest::strategy_mods::collection::vec(0u32..u32::MAX, 7..=10)
    ) {
        let base_edges = ba_edges(300, 13);
        let (script, final_edges) = decode_script(&raw, &base_edges);
        let mut active: Vec<usize> = Vec::new();
        for op in &script {
            match op {
                ScriptOp::Arrive(a) => active.push(*a),
                ScriptOp::Depart(a) => active.retain(|b| b != a),
                ScriptOp::Delta(_) => {}
            }
        }
        active.sort_unstable();
        let all: Vec<usize> = (0..SCRIPT_ADS).collect();
        for base in [test_cfg(5), online_cfg(5), pooled_cfg(5), ScalableConfig {
            rr_sharing: true,
            ..online_cfg(5)
        }] {
            // One instance per graph the script visits, shared by both runs.
            let mut edges = base_edges.clone();
            let mut graphs = vec![Arc::new(script_instance(&edges, &all, base.rr_sharing))];
            for op in &script {
                if let ScriptOp::Delta(d) = op {
                    edges.retain(|e| !d.removes.contains(e));
                    edges.extend(&d.inserts);
                    graphs.push(Arc::new(script_instance(&edges, &all, base.rr_sharing)));
                }
            }
            let run = |sampler_threads: usize| {
                let cfg = ScalableConfig { sampler_threads, ..base };
                let mut eng =
                    ResidentEngine::new(Arc::clone(&graphs[0]), AlgorithmKind::TiCsrm, cfg)
                        .unwrap();
                let mut next = 1;
                for op in &script {
                    match op {
                        ScriptOp::Arrive(a) => eng.add_advertiser(*a),
                        ScriptOp::Depart(a) => eng.remove_advertiser(*a),
                        ScriptOp::Delta(d) => {
                            next += 1;
                            eng.apply_graph_delta(Arc::clone(&graphs[next - 1]), d)
                        }
                    }
                    .unwrap();
                }
                let events = eng.events().to_vec();
                let (alloc, stats) = eng.finish();
                (events, alloc, stats)
            };
            let what = format!("{:?} pooled={}", base.sampling, base.rr_sharing);
            let (ev1, al1, st1) = run(1);
            let (ev8, al8, st8) = run(8);
            proptest::prop_assert_eq!(&ev1, &ev8, "{}: event logs differ", what);
            proptest::prop_assert_eq!(&al1, &al8, "{}: allocations differ", what);
            proptest::prop_assert_eq!(
                deterministic_stats(&st1),
                deterministic_stats(&st8),
                "{}: stats differ",
                what
            );
            let cold_inst = script_instance(&final_edges, &active, base.rr_sharing);
            let (_, cold) = TiEngine::new(&cold_inst, AlgorithmKind::TiCsrm, base).run();
            let rel =
                (st1.total_revenue() - cold.total_revenue()).abs() / cold.total_revenue();
            proptest::prop_assert!(
                rel < 0.15,
                "{}: resident revenue {} vs cold {} (rel {:.3})",
                what,
                st1.total_revenue(),
                cold.total_revenue(),
                rel
            );
        }
    }
}
