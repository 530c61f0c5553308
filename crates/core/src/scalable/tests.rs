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
    // The tentpole guarantee: candidate refresh and post-commit fixups fan
    // out across selection workers, but every worker count — including
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
    for kind in [
        AlgorithmKind::TiCsrm,
        AlgorithmKind::PageRankGr,
        AlgorithmKind::PageRankRr,
    ] {
        let base = ScalableConfig {
            window: Window::Size(8),
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

#[test]
fn caching_matches_refresh_every_round_semantics() {
    // In-repo oracle for the caching fast path in the regime the golden
    // snapshots cannot reach (multi-entry windows smaller than the
    // candidate pool, w ≪ n, where caches survive commits): force every
    // cached candidate invalid every round — the pre-caching sequential
    // engine's exact refresh pattern — and require identical allocations
    // and identical engine outputs. Refresh/contention counters are
    // excluded: differing is their purpose.
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
            ),
        )
    };
    let inst = wc_instance(300, 4, 60.0, 0.2, 33);
    for (kind, sampling) in [
        (AlgorithmKind::TiCsrm, SamplingStrategy::FixedTheta),
        (AlgorithmKind::TiCsrm, SamplingStrategy::OnlineBounds),
        (AlgorithmKind::TiCarm, SamplingStrategy::FixedTheta),
        (AlgorithmKind::PageRankGr, SamplingStrategy::FixedTheta),
        (AlgorithmKind::PageRankRr, SamplingStrategy::FixedTheta),
    ] {
        let cached_cfg = ScalableConfig {
            window: Window::Size(8),
            sampling,
            ..test_cfg(29)
        };
        let forced_cfg = ScalableConfig {
            refresh_all_rounds: true,
            ..cached_cfg
        };
        let (a_cached, s_cached) = TiEngine::new(&inst, kind, cached_cfg).run();
        let (a_forced, s_forced) = TiEngine::new(&inst, kind, forced_cfg).run();
        assert!(a_cached.num_seeds() > 0, "{}: no seeds", kind.name());
        assert_eq!(
            a_cached,
            a_forced,
            "{} {:?}: caching changed the allocation vs refresh-every-round",
            kind.name(),
            sampling
        );
        assert_eq!(
            outputs(&s_cached),
            outputs(&s_forced),
            "{} {:?}: caching changed engine outputs vs refresh-every-round",
            kind.name(),
            sampling
        );
        // The fast path must actually have engaged for the heap-based
        // algorithms: fewer refreshes than the forced sequential pattern.
        // The PageRank baselines share one candidate order across ads, so
        // every commit legitimately invalidates every proposal (full
        // contention) and their refresh counts coincide.
        if matches!(kind, AlgorithmKind::TiCsrm | AlgorithmKind::TiCarm) {
            assert!(
                s_cached.candidate_refreshes < s_forced.candidate_refreshes,
                "{} {:?}: caching never engaged ({} vs {} refreshes)",
                kind.name(),
                sampling,
                s_cached.candidate_refreshes,
                s_forced.candidate_refreshes
            );
        } else {
            assert!(s_cached.candidate_refreshes <= s_forced.candidate_refreshes);
        }
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
    // expected sum is computable from the components themselves.
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
    let mut cov = RrCoverage::new(n);
    let (sets, _) = sampler.sample_batch(g, theta, 11, 0);
    cov.add_batch(&sets, &no_seeds);
    let mut val_cov = RrCoverage::new(n);
    let (val_sets, _) = sampler.sample_batch(g, theta, 13, 0);
    val_cov.add_batch(&val_sets, &no_seeds);
    let mut st = super::ad_state::AdState {
        idx: 0,
        sampler,
        cov,
        theta,
        s_latent: 1,
        kpt,
        seeds: Vec::new(),
        is_seed: vec![false; n],
        cost_total: 0.0,
        heap: LazyGreedyHeap::default(),
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
    let with_val = terminal_ad_bytes(&mut st);
    // `terminal_ad_bytes` compacted both indexes; re-reading the components
    // now must reproduce its sum exactly — nothing dropped, nothing doubled.
    let op = st.opim.as_ref().expect("opim state still present");
    let val_bytes = op.val_cov.memory_bytes();
    let expected = st.cov.memory_bytes() + st.sampler.memory_bytes() + val_bytes;
    assert_eq!(
        with_val, expected,
        "terminal tally is not the component sum"
    );
    assert!(val_bytes > 0, "validation index reported as empty");
    // Dropping the validation state must remove exactly its bytes: the
    // regression this guards is double-counting (or omitting) val_cov.
    st.opim = None;
    let without_val = terminal_ad_bytes(&mut st);
    assert_eq!(
        with_val - without_val,
        val_bytes,
        "validation index not counted exactly once"
    );
    assert_eq!(
        without_val,
        st.cov.memory_bytes() + st.sampler.memory_bytes()
    );
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
        assert_eq!(stats.delta_resampled_sets, stats.delta_invalidated_sets);
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

    let mismatched = Arc::new(wc_instance(200, 3, 40.0, 0.2, 5));
    assert_eq!(
        eng.apply_graph_delta(mismatched, &GraphDelta::default())
            .unwrap_err(),
        ResidentError::InstanceMismatch
    );

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
