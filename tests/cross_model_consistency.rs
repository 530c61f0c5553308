//! Cross-model correctness suite: the RR-set machinery must agree with
//! forward Monte-Carlo ground truth under **both** diffusion models, and
//! the arena-backed LT sampler must reproduce the naive reference sampler's
//! occurrence frequencies — the TIM/IMM-style validation of a sampler
//! against its model.

use rand::{rngs::SmallRng, SeedableRng};

use revmax::diffusion::{self, AdProbs, DiffusionModel, TicModel, TopicDistribution};
use revmax::graph::generators;
use revmax::rrsets;

const MC_RUNS: usize = 10_000;
const RR_THETA: usize = 120_000;

/// A seeded, ≤200-node power-law graph shared by the agreement tests.
fn test_graph() -> revmax::graph::CsrGraph {
    let mut rng = SmallRng::seed_from_u64(71);
    generators::chung_lu_directed(200, 1400, 2.1, &mut rng)
}

/// Relative 5% agreement with a small absolute floor for tiny spreads.
fn assert_within_5pct(forward: f64, reverse: f64, what: &str) {
    let tol = 0.05 * forward.max(1.0);
    assert!(
        (forward - reverse).abs() <= tol,
        "{what}: forward MC {forward} vs RR {reverse} (tol {tol})"
    );
}

#[test]
fn ic_rr_estimates_agree_with_forward_monte_carlo() {
    let g = test_graph();
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let model = DiffusionModel::ic(probs.clone());
    for (i, seeds) in [vec![0u32], vec![3, 17, 42], vec![5, 50, 100, 150, 199]]
        .into_iter()
        .enumerate()
    {
        let forward =
            diffusion::estimate_spread(&g, &probs, &seeds, MC_RUNS, 100 + i as u64).spread;
        let reverse =
            rrsets::rr_estimate_spread_model(&g, &model, &seeds, RR_THETA, 200 + i as u64);
        assert_within_5pct(forward, reverse, &format!("IC seeds {seeds:?}"));
    }
}

#[test]
fn lt_rr_estimates_agree_with_forward_monte_carlo() {
    let g = test_graph();
    // Trivalency-derived in-weights: infeasible on hubs until water-filled,
    // so this also exercises the normalized pipeline end-to-end.
    let mut rng = SmallRng::seed_from_u64(9);
    let raw = TicModel::trivalency(&g, &mut rng).ad_probs(&TopicDistribution::uniform(1));
    let model = DiffusionModel::lt(&g, raw);
    for (i, seeds) in [vec![0u32], vec![3, 17, 42], vec![5, 50, 100, 150, 199]]
        .into_iter()
        .enumerate()
    {
        let forward =
            diffusion::estimate_lt_spread(&g, model.params(), &seeds, MC_RUNS, 300 + i as u64);
        let reverse =
            rrsets::rr_estimate_spread_model(&g, &model, &seeds, RR_THETA, 400 + i as u64);
        assert_within_5pct(forward, reverse, &format!("LT seeds {seeds:?}"));
    }
}

#[test]
fn lt_wc_weights_agree_too() {
    // The classic LT setting (weights 1/indeg, every node always picks an
    // in-edge): long reverse paths, the stress case for the arena walk.
    let g = test_graph();
    let w = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let model = DiffusionModel::lt(&g, w);
    let seeds = vec![1u32, 20, 60];
    let forward = diffusion::estimate_lt_spread(&g, model.params(), &seeds, MC_RUNS, 21);
    let reverse = rrsets::rr_estimate_spread_model(&g, &model, &seeds, RR_THETA, 22);
    assert_within_5pct(forward, reverse, "LT/WC seeds");
}

#[test]
fn tic_rr_estimates_agree_with_forward_monte_carlo() {
    // Lazy-mixing TIC against flattened forward MC, across qualitatively
    // different mixtures: a point mass, the paper's peaked ad profile, and
    // a random Dirichlet draw. The RR side never materializes flat probs.
    let g = test_graph();
    let mut trng = SmallRng::seed_from_u64(81);
    let tic = std::sync::Arc::new(TicModel::topical(
        &g,
        5,
        revmax::diffusion::TopicalConfig::default(),
        &mut trng,
    ));
    let mut drng = SmallRng::seed_from_u64(82);
    let mixtures = [
        ("delta", TopicDistribution::delta(5, 2)),
        ("peaked", TopicDistribution::peaked(5, 0, 0.91)),
        (
            "dirichlet",
            TopicDistribution::random_dirichlet(5, 0.7, &mut drng),
        ),
    ];
    // Peaked mixtures keep spreads near 1, where the 5% floor is close to
    // the RR standard error at the shared θ — quadruple θ here.
    let theta = 4 * RR_THETA;
    for (i, (name, gamma)) in mixtures.into_iter().enumerate() {
        let model = DiffusionModel::tic(std::sync::Arc::clone(&tic), gamma.clone());
        let flat = tic.ad_probs(&gamma);
        for (j, seeds) in [vec![0u32], vec![3, 17, 42], vec![5, 50, 100, 150, 199]]
            .into_iter()
            .enumerate()
        {
            let salt = (i * 3 + j) as u64;
            let forward = diffusion::estimate_spread(&g, &flat, &seeds, MC_RUNS, 500 + salt).spread;
            let reverse = rrsets::rr_estimate_spread_model(&g, &model, &seeds, theta, 600 + salt);
            assert_within_5pct(forward, reverse, &format!("TIC/{name} seeds {seeds:?}"));
        }
    }
}

#[test]
fn tic_delta_mixture_is_bit_identical_to_flat_ic() {
    // Footnote-7 degeneracy, end-to-end through the arena: a point mass on
    // topic z must reproduce the flat IC sampler on column z byte-for-byte.
    let g = test_graph();
    let mut trng = SmallRng::seed_from_u64(83);
    let tic = std::sync::Arc::new(TicModel::topical(
        &g,
        4,
        revmax::diffusion::TopicalConfig::default(),
        &mut trng,
    ));
    for z in 0..4 {
        let gamma = TopicDistribution::delta(4, z);
        let column = AdProbs::from_vec(
            (0..g.num_edges() as u32)
                .map(|e| tic.topic_prob(e, z))
                .collect(),
        );
        let tic_model = DiffusionModel::tic(std::sync::Arc::clone(&tic), gamma);
        let ic_model = DiffusionModel::ic(column);
        let (a, wa) = rrsets::PreparedSampler::for_model(&g, &tic_model).sample_batch(
            &g,
            3_000,
            700 + z as u64,
            0,
        );
        let (b, wb) = rrsets::PreparedSampler::for_model(&g, &ic_model).sample_batch(
            &g,
            3_000,
            700 + z as u64,
            0,
        );
        assert_eq!(a, b, "topic {z}: delta-TIC arena differs from flat IC");
        assert_eq!(wa, wb);
    }
}

#[test]
fn tic_arena_sampler_matches_naive_flattened_frequencies() {
    // Chi-square-style agreement between the arena TIC sampler (lazy
    // per-edge mixing, geometric skips) and the naive reference sampler run
    // on the ad's flattened Eq. 1 probabilities: per-node membership
    // frequencies over two independent samples must agree.
    let mut rng = SmallRng::seed_from_u64(43);
    let g = generators::chung_lu_directed(120, 900, 2.1, &mut rng);
    let mut trng = SmallRng::seed_from_u64(44);
    let tic = std::sync::Arc::new(TicModel::topical(
        &g,
        6,
        revmax::diffusion::TopicalConfig {
            dominant_weight: 0.8,
            strength: 1.5,
        },
        &mut trng,
    ));
    let gamma = TopicDistribution::peaked(6, 1, 0.7);
    let model = DiffusionModel::tic(std::sync::Arc::clone(&tic), gamma.clone());
    let n = g.num_nodes();
    let draws = 60_000usize;

    let (arena_sets, _) =
        rrsets::PreparedSampler::for_model(&g, &model).sample_batch(&g, draws, 45, 0);
    let mut arena_counts = vec![0u64; n];
    for &u in arena_sets.node_slice() {
        arena_counts[u as usize] += 1;
    }

    // Naive reference: the per-ad flattened-IC sampler (same distribution
    // by Eq. 1; completely different code path and RNG stream).
    let flat = tic.ad_probs(&gamma);
    let mut naive_counts = vec![0u64; n];
    let mut srng = SmallRng::seed_from_u64(46);
    let mut ws = rrsets::RrWorkspace::new(n);
    let mut out = Vec::new();
    for _ in 0..draws {
        rrsets::sample_rr_set(&g, &flat, &mut ws, &mut srng, &mut out);
        for &u in &out {
            naive_counts[u as usize] += 1;
        }
    }

    let mut chi2 = 0.0f64;
    let mut cells = 0usize;
    for u in 0..n {
        let fa = arena_counts[u] as f64 / draws as f64;
        let fn_ = naive_counts[u] as f64 / draws as f64;
        let p = 0.5 * (fa + fn_);
        let se = (p * (1.0 - p) * 2.0 / draws as f64).sqrt();
        assert!(
            (fa - fn_).abs() < 5.0 * se + 2e-4,
            "node {u}: arena {fa} vs naive {fn_} (se {se})"
        );
        if p * draws as f64 >= 5.0 {
            let z = (fa - fn_) / se;
            chi2 += z * z;
            cells += 1;
        }
    }
    let mean_chi2 = chi2 / cells.max(1) as f64;
    assert!(
        mean_chi2 < 2.0,
        "aggregate chi-square per cell {mean_chi2} over {cells} cells"
    );
}

#[test]
fn lt_arena_sampler_matches_naive_occurrence_frequencies() {
    // Chi-square-style agreement between the arena alias-table sampler and
    // the naive `sample_lt_rr_set` reference: per-node membership counts
    // over two independent samples of N sets each must differ by less than
    // 5 binomial standard errors (plus a floor for near-zero cells).
    let mut rng = SmallRng::seed_from_u64(33);
    let g = generators::chung_lu_directed(120, 900, 2.1, &mut rng);
    let mut wrng = SmallRng::seed_from_u64(34);
    let raw = TicModel::trivalency(&g, &mut wrng).ad_probs(&TopicDistribution::uniform(1));
    let model = DiffusionModel::lt(&g, raw);
    let n = g.num_nodes();
    let draws = 60_000usize;

    let (arena_sets, _) =
        rrsets::PreparedSampler::for_model(&g, &model).sample_batch(&g, draws, 35, 0);
    let mut arena_counts = vec![0u64; n];
    for &u in arena_sets.node_slice() {
        arena_counts[u as usize] += 1;
    }

    let mut naive_counts = vec![0u64; n];
    let mut srng = SmallRng::seed_from_u64(36);
    let mut out = Vec::new();
    for _ in 0..draws {
        diffusion::sample_lt_rr_set(&g, model.params(), &mut srng, &mut out);
        for &u in &out {
            naive_counts[u as usize] += 1;
        }
    }

    let mut chi2 = 0.0f64;
    let mut cells = 0usize;
    for u in 0..n {
        let fa = arena_counts[u] as f64 / draws as f64;
        let fn_ = naive_counts[u] as f64 / draws as f64;
        let p = 0.5 * (fa + fn_);
        // Binomial s.e. of the difference of two independent frequencies.
        let se = (p * (1.0 - p) * 2.0 / draws as f64).sqrt();
        assert!(
            (fa - fn_).abs() < 5.0 * se + 2e-4,
            "node {u}: arena {fa} vs naive {fn_} (se {se})"
        );
        if p * draws as f64 >= 5.0 {
            let z = (fa - fn_) / se;
            chi2 += z * z;
            cells += 1;
        }
    }
    // Aggregate: the mean squared z-score should hover near 1 under H0.
    let mean_chi2 = chi2 / cells.max(1) as f64;
    assert!(
        mean_chi2 < 2.0,
        "aggregate chi-square per cell {mean_chi2} over {cells} cells"
    );
}

#[test]
fn batches_are_thread_count_invariant_for_both_models() {
    // Determinism across worker counts: a single-threaded sampler must
    // produce byte-identical arenas to the parallel one, for IC, LT, TIC.
    let g = test_graph();
    let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let mut trng = SmallRng::seed_from_u64(85);
    let tic = std::sync::Arc::new(TicModel::topical(
        &g,
        3,
        revmax::diffusion::TopicalConfig::default(),
        &mut trng,
    ));
    for model in [
        DiffusionModel::ic(probs.clone()),
        DiffusionModel::lt(&g, probs.clone()),
        DiffusionModel::tic(tic, TopicDistribution::peaked(3, 1, 0.8)),
    ] {
        let parallel = rrsets::PreparedSampler::for_model(&g, &model);
        let mut serial = rrsets::PreparedSampler::for_model(&g, &model);
        serial.set_thread_cap(1);
        let (a, wa) = parallel.sample_batch(&g, 5_000, 77, 0);
        let (b, wb) = serial.sample_batch(&g, 5_000, 77, 0);
        assert_eq!(
            a,
            b,
            "{:?}: arenas differ across thread counts",
            model.kind()
        );
        assert_eq!(wa, wb);
    }
}

#[test]
fn lt_singleton_spreads_agree_with_forward_monte_carlo() {
    // Aggregate singleton agreement (the incentive-pricing input) under LT.
    let mut rng = SmallRng::seed_from_u64(55);
    let g = generators::chung_lu_directed(150, 1000, 2.2, &mut rng);
    let w = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
    let model = DiffusionModel::lt(&g, w);
    let rr = rrsets::rr_singleton_spreads_model(&g, &model, 200_000, 57);
    let mc = diffusion::lt::singleton_spreads_lt_mc(&g, model.params(), 2_000, 58);
    let rr_sum: f64 = rr.iter().sum();
    let mc_sum: f64 = mc.iter().sum();
    assert!(
        (rr_sum - mc_sum).abs() / mc_sum < 0.05,
        "LT singleton sums: RR {rr_sum} vs MC {mc_sum}"
    );
}

#[test]
fn zero_weight_graph_yields_singletons_under_both_models() {
    let g = revmax::graph::builder::graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
    let zero = AdProbs::from_vec(vec![0.0; 3]);
    for model in [
        DiffusionModel::ic(zero.clone()),
        DiffusionModel::lt(&g, zero.clone()),
    ] {
        let (sets, widths) =
            rrsets::PreparedSampler::for_model(&g, &model).sample_batch(&g, 500, 5, 0);
        assert!(sets.iter().all(|s| s.len() == 1), "{:?}", model.kind());
        // Widths still count in-edges of the (singleton) sets.
        assert!(widths.iter().all(|&w| w <= 1));
    }
}
