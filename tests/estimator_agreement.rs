//! Cross-estimator agreement: exact enumeration, Monte-Carlo cascades and
//! RR-set estimates must tell the same story, including through the full
//! TI engine on deterministic instances.

use std::sync::Arc;

use rand::{rngs::SmallRng, SeedableRng};

use revmax::diffusion::{self, AdProbs, TicModel, TopicDistribution};
use revmax::graph::{builder::graph_from_edges, generators};
use revmax::prelude::*;
use revmax::rrsets;

#[test]
fn three_estimators_agree_on_a_gadget() {
    let g = graph_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]);
    let probs = AdProbs::from_vec(vec![0.5, 0.4, 0.6, 0.7, 0.3, 0.8]);
    let model = diffusion::DiffusionModel::ic(probs.clone());
    for seeds in [vec![0u32], vec![0, 4], vec![2, 5]] {
        let exact = diffusion::world::exact_spread_enumeration(&g, &probs, &seeds);
        let mc = diffusion::estimate_spread(&g, &probs, &seeds, 120_000, 3).spread;
        let rr = rrsets::rr_estimate_spread_model(&g, &model, &seeds, 120_000, 4);
        assert!(
            (exact - mc).abs() < 0.05,
            "seeds {seeds:?}: exact {exact} mc {mc}"
        );
        assert!(
            (exact - rr).abs() < 0.05,
            "seeds {seeds:?}: exact {exact} rr {rr}"
        );
    }
}

#[test]
fn rr_and_mc_singletons_agree_on_random_graph() {
    let mut rng = SmallRng::seed_from_u64(12);
    let g = generators::erdos_renyi_m(150, 600, true, &mut rng);
    let tic = TicModel::weighted_cascade(&g);
    let probs = tic.ad_probs(&TopicDistribution::uniform(1));
    let rr = rrsets::rr_singleton_spreads_model(
        &g,
        &diffusion::DiffusionModel::ic(probs.clone()),
        200_000,
        5,
    );
    let mc = diffusion::singleton_spreads_mc(&g, &probs, 2_000, 6);
    let mut max_rel = 0.0f64;
    for u in 0..g.num_nodes() {
        let rel = (rr[u] - mc[u]).abs() / mc[u].max(1.0);
        max_rel = max_rel.max(rel);
    }
    assert!(max_rel < 0.25, "worst singleton disagreement {max_rel}");
    // Aggregate agreement should be much tighter.
    let rr_sum: f64 = rr.iter().sum();
    let mc_sum: f64 = mc.iter().sum();
    assert!(
        (rr_sum - mc_sum).abs() / mc_sum < 0.03,
        "sums {rr_sum} vs {mc_sum}"
    );
}

#[test]
fn engine_internal_estimate_matches_independent_evaluation() {
    let mut rng = SmallRng::seed_from_u64(44);
    let g = Arc::new(generators::barabasi_albert(500, 3, &mut rng));
    let tic = TicModel::weighted_cascade(&g);
    let ads = vec![
        Advertiser::new(1.0, 60.0, TopicDistribution::uniform(1)),
        Advertiser::new(1.0, 60.0, TopicDistribution::uniform(1)),
    ];
    let inst = RmInstance::build(
        g,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::RrEstimate { theta: 30_000 },
        8,
    );
    let cfg = ScalableConfig {
        epsilon: 0.2,
        max_sets_per_ad: 500_000,
        ..Default::default()
    };
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    let eval = evaluate_allocation(&inst, &alloc, EvalMethod::MonteCarlo { runs: 20_000 }, 17);
    let internal = stats.total_revenue();
    let external = eval.total_revenue();
    assert!(
        (internal - external).abs() / external.max(1.0) < 0.1,
        "engine estimate {internal} vs MC evaluation {external}"
    );
}

#[test]
fn tic_reduces_to_ic_under_identical_topics() {
    // Footnote 7: with identical topic distributions TIC = IC; the engine
    // must produce identical allocations whether probabilities come from a
    // 1-topic model or an equivalent multi-topic model with equal rows.
    let g = Arc::new(graph_from_edges(
        8,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (3, 7),
        ],
    ));
    let m = g.num_edges();
    let flat = TicModel::uniform(&g, 0.6);
    // Two topics, both rows 0.6 → any mixture gives 0.6.
    let matrix: Vec<f32> = (0..m).flat_map(|_| [0.6, 0.6]).collect();
    let multi = TicModel::from_matrix(&g, 2, matrix);
    let p1 = flat.ad_probs(&TopicDistribution::uniform(1));
    let p2 = multi.ad_probs(&TopicDistribution::new(&[0.3, 0.7]));
    assert_eq!(p1.as_slice(), p2.as_slice());
}
