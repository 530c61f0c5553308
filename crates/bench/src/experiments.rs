//! One function per paper artifact (tables, figures, ablations).
//!
//! Every function prints the same rows/series the paper reports and writes a
//! CSV under `target/experiments/`. See `DESIGN.md` for the per-experiment
//! index; paper-vs-measured records are not kept yet (`DESIGN.md` →
//! "Records").

use rm_core::{
    evaluate_allocation, AlgorithmKind, EvalMethod, RmInstance, SamplingStrategy, ScalableConfig,
    TiEngine, Window,
};
use rm_graph::{degree, SyntheticDataset};

use crate::report::{fmt, Table};
use crate::setup::{
    self, quality_config, quality_instance, scalability_config, scalability_instance, ModelKind,
};

/// Global knobs of a harness invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Size multiplier applied to every dataset (1.0 = paper sizes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Shrink grids for smoke runs.
    pub quick: bool,
    /// Use the paper's ε = 0.1 for quality experiments (default 0.3).
    pub paper_eps: bool,
    /// Worker threads for the engine's per-round selection fan-out
    /// (`ScalableConfig::selection_threads`); `usize::MAX` = hardware
    /// parallelism. Results are bit-identical for every value.
    pub selection_threads: usize,
    /// Worker-thread cap for RR-set batch sampling
    /// (`ScalableConfig::sampler_threads`); `usize::MAX` = hardware
    /// parallelism. Results are bit-identical for every value.
    pub sampler_threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 0.1,
            seed: 20_170_419,
            quick: false,
            paper_eps: false,
            selection_threads: usize::MAX,
            sampler_threads: usize::MAX,
        }
    }
}

impl Opts {
    /// Applies the harness-level engine knobs on top of a base config.
    pub(crate) fn engine_cfg(&self, base: ScalableConfig) -> ScalableConfig {
        ScalableConfig {
            selection_threads: self.selection_threads,
            sampler_threads: self.sampler_threads,
            ..base
        }
    }
}

const QUALITY_DATASETS: [SyntheticDataset; 2] = [
    SyntheticDataset::FlixsterLike,
    SyntheticDataset::EpinionsLike,
];

const ALGOS: [AlgorithmKind; 4] = [
    AlgorithmKind::TiCsrm,
    AlgorithmKind::TiCarm,
    AlgorithmKind::PageRankGr,
    AlgorithmKind::PageRankRr,
];

fn eval_theta(inst: &RmInstance) -> usize {
    (inst.num_nodes() * 50).clamp(50_000, 500_000)
}

/// Table 1: dataset statistics (paper sizes and generated-at-scale sizes).
pub fn table1(opts: Opts) {
    let mut t = Table::new(
        "table1_datasets",
        &[
            "dataset",
            "paper_nodes",
            "paper_edges",
            "type",
            "gen_nodes",
            "gen_edges",
            "gen_max_outdeg",
        ],
    );
    for ds in SyntheticDataset::ALL {
        // LiveJournal-like at a further 1/10 of the requested scale so the
        // statistics run stays fast; all other experiments do the same.
        let s = lj_scale(ds, opts.scale);
        let g = ds.generate(s, opts.seed);
        let spec = ds.spec();
        let st = degree::out_degree_stats(&g);
        t.push(vec![
            spec.name.into(),
            spec.paper_nodes.to_string(),
            spec.paper_edges.to_string(),
            if spec.directed {
                "directed".into()
            } else {
                "undirected".into()
            },
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            st.max.to_string(),
        ]);
    }
    t.emit();
}

fn lj_scale(ds: SyntheticDataset, scale: f64) -> f64 {
    if ds == SyntheticDataset::LiveJournalLike {
        scale * 0.1
    } else {
        scale
    }
}

/// Table 2: advertiser budgets and CPEs actually used at this scale.
pub fn table2(opts: Opts) {
    let mut t = Table::new(
        "table2_terms",
        &[
            "dataset",
            "budget_mean",
            "budget_max",
            "budget_min",
            "cpe_mean",
            "cpe_max",
            "cpe_min",
        ],
    );
    for ds in QUALITY_DATASETS {
        let terms = setup::table2_terms(ds, 10, opts.scale);
        let budgets: Vec<f64> = terms.iter().map(|&(_, b)| b).collect();
        let cpes: Vec<f64> = terms.iter().map(|&(c, _)| c).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
        let min = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
        t.push(vec![
            ds.to_string(),
            fmt(mean(&budgets)),
            fmt(max(&budgets)),
            fmt(min(&budgets)),
            fmt(mean(&cpes)),
            fmt(max(&cpes)),
            fmt(min(&cpes)),
        ]);
    }
    t.emit();
}

/// Figure 1: the Theorem 2 tightness gadget, solved exactly.
pub fn fig1(_opts: Opts) {
    use rm_core::instances::tightness_instance;

    let (inst, _) = tightness_instance();
    let mut t = Table::new("fig1_tightness", &["quantity", "value"]);

    let p = inst.to_exact_problem();
    let ca_rev = p.total_revenue(&rm_submod::ca_greedy(&p).0);
    let cs_rev = p.total_revenue(&rm_submod::cs_greedy(&p).0);
    let (_, opt) = rm_submod::exact::brute_force_optimum(&p);
    let (r, big_r) = rm_submod::exact::independence_ranks(&p);
    let kappa = p.pi_curvature();
    let bound = rm_submod::theorem2_bound(kappa, r, big_r);

    t.push(vec!["OPT revenue".into(), fmt(opt)]);
    t.push(vec!["CA-GREEDY revenue".into(), fmt(ca_rev)]);
    t.push(vec!["CS-GREEDY revenue".into(), fmt(cs_rev)]);
    t.push(vec!["total curvature κ_π".into(), fmt(kappa)]);
    t.push(vec!["lower rank r".into(), r.to_string()]);
    t.push(vec!["upper rank R".into(), big_r.to_string()]);
    t.push(vec!["Theorem 2 bound".into(), fmt(bound)]);
    t.push(vec!["CA / OPT (tight?)".into(), fmt(ca_rev / opt)]);
    t.emit();
}

/// Figures 2 and 3: total revenue and total seeding cost as functions of α,
/// for each incentive model, dataset and algorithm. Computed in one sweep.
pub fn fig2_fig3(opts: Opts) {
    quality_sweep(
        opts,
        "fig2/3",
        ("fig2_revenue_vs_alpha", "fig3_seeding_cost_vs_alpha"),
        setup::QualityContext::new,
        &ALGOS,
        0xE,
    );
}

/// `lt-quality`: the Fig. 2/3-style revenue and seeding-cost sweep under
/// the **Linear Threshold** model (incentive models × α grid × datasets),
/// TI-CSRM vs TI-CARM. In-weights come from the dataset's LT derivation
/// (WC `1/indeg` for Epinions-like, water-filled trivalency for
/// Flixster-like); pricing and evaluation both run under LT.
pub fn lt_quality(opts: Opts) {
    quality_sweep(
        opts,
        "lt-quality",
        ("ltq_revenue_vs_alpha", "ltq_seeding_cost_vs_alpha"),
        setup::QualityContext::new_lt,
        &[AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm],
        0x17,
    );
}

/// `tic-quality`: the Fig. 2/3-style revenue and seeding-cost sweep under
/// the **lazy-mixing TIC** model — the paper's actual topical setting run
/// end-to-end without per-ad flattening. Flixster-like uses the topical
/// L = 10 table with five purely-competing ad pairs; Epinions-like runs
/// Weighted Cascade as the L = 1 degenerate TIC. TI-CSRM vs TI-CARM.
pub fn tic_quality(opts: Opts) {
    quality_sweep(
        opts,
        "tic-quality",
        ("ticq_revenue_vs_alpha", "ticq_seeding_cost_vs_alpha"),
        setup::QualityContext::new_tic,
        &[AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm],
        0x71C,
    );
}

/// The shared Fig. 2/3-shaped sweep: incentive models × α grid × datasets
/// × algorithms, one engine run per cell, scored on an independent sample,
/// reported as paired revenue/seeding-cost tables. `ctx_new` fixes the
/// diffusion family (IC for fig2/3, LT for `lt-quality`, lazy-mixing TIC
/// for `tic-quality`).
fn quality_sweep(
    opts: Opts,
    tag: &str,
    (rev_name, cost_name): (&str, &str),
    ctx_new: fn(SyntheticDataset, usize, f64, u64) -> setup::QualityContext,
    algos: &[AlgorithmKind],
    eval_salt: u64,
) {
    let headers = |metric: &'static str| {
        [
            "dataset",
            "model",
            "alpha",
            "algorithm",
            metric,
            "seeds",
            "time_s",
        ]
    };
    let mut rev = Table::new(rev_name, &headers("revenue"));
    let mut cost = Table::new(cost_name, &headers("seeding_cost"));
    let h = 10;
    for ds in QUALITY_DATASETS {
        let ctx = ctx_new(ds, h, opts.scale, opts.seed);
        for model in ModelKind::ALL {
            let mut grid = model.alpha_grid(ds);
            if opts.quick {
                grid = vec![grid[0], grid[grid.len() - 1]];
            }
            for alpha in grid {
                let inst = ctx.instance(model.at(alpha));
                let eval = EvalMethod::RrSets {
                    theta: eval_theta(&inst),
                };
                for &kind in algos {
                    let cfg = opts.engine_cfg(quality_config(opts.seed, opts.paper_eps));
                    let (alloc, stats) = TiEngine::new(&inst, kind, cfg).run();
                    // Golden-pinned legacy stream. rm-lint: allow(rng-discipline)
                    let report = evaluate_allocation(&inst, &alloc, eval, opts.seed ^ eval_salt);
                    let base = vec![
                        ds.to_string(),
                        model.name().into(),
                        format!("{alpha}"),
                        kind.name().into(),
                    ];
                    let mut r1 = base.clone();
                    r1.extend([
                        fmt(report.total_revenue()),
                        alloc.num_seeds().to_string(),
                        fmt(stats.elapsed.as_secs_f64()),
                    ]);
                    rev.push(r1);
                    let mut r2 = base;
                    r2.extend([
                        fmt(report.total_seeding_cost()),
                        alloc.num_seeds().to_string(),
                        fmt(stats.elapsed.as_secs_f64()),
                    ]);
                    cost.push(r2);
                }
                println!("[{tag}] {ds} {} α={alpha} done", model.name());
            }
        }
    }
    rev.emit();
    cost.emit();
}

/// Figure 4: revenue vs running time across CS window sizes.
pub fn fig4(opts: Opts) {
    let mut t = Table::new(
        "fig4_window_tradeoff",
        &[
            "dataset",
            "alpha",
            "window",
            "revenue",
            "time_s",
            "seeds",
            "theta_total",
        ],
    );
    let h = 10;
    let windows: Vec<Option<usize>> = if opts.quick {
        vec![Some(1), Some(100), None]
    } else {
        vec![
            Some(1),
            Some(50),
            Some(100),
            Some(250),
            Some(500),
            Some(1000),
            Some(2500),
            Some(5000),
            None, // full window (w = n)
        ]
    };
    for ds in QUALITY_DATASETS {
        let ctx = setup::QualityContext::new(ds, h, opts.scale, opts.seed);
        for alpha in [0.2, 0.5] {
            let inst = ctx.instance(ModelKind::Linear.at(alpha));
            let eval = EvalMethod::RrSets {
                theta: eval_theta(&inst),
            };
            for w in &windows {
                let mut cfg = opts.engine_cfg(quality_config(opts.seed, opts.paper_eps));
                cfg.window = match w {
                    Some(s) => Window::Size(*s),
                    None => Window::Full,
                };
                let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
                let report = evaluate_allocation(&inst, &alloc, eval, opts.seed ^ 0x4);
                t.push(vec![
                    ds.to_string(),
                    format!("{alpha}"),
                    w.map_or("n".into(), |s| s.to_string()),
                    fmt(report.total_revenue()),
                    fmt(stats.elapsed.as_secs_f64()),
                    alloc.num_seeds().to_string(),
                    stats.total_theta().to_string(),
                ]);
            }
            println!("[fig4] {ds} α={alpha} done");
        }
    }
    t.emit();
}

/// Figure 5 + Table 3 share their sweeps: runtime and memory vs `h`, and
/// runtime vs budget.
pub fn fig5_table3(opts: Opts) {
    let mut time_h = Table::new(
        "fig5_runtime_vs_h",
        &["dataset", "h", "algorithm", "time_s", "seeds", "revenue"],
    );
    let mut mem = Table::new(
        "table3_memory_vs_h",
        &[
            "dataset",
            "h",
            "algorithm",
            "memory_gib",
            "theta_total",
            "seeds",
        ],
    );
    let mut time_b = Table::new(
        "fig5_runtime_vs_budget",
        &[
            "dataset",
            "budget",
            "algorithm",
            "time_s",
            "seeds",
            "revenue",
        ],
    );

    let h_grid: Vec<usize> = if opts.quick {
        vec![1, 5]
    } else {
        vec![1, 5, 10, 15, 20]
    };
    let cases = [
        (
            SyntheticDataset::DblpLike,
            10_000.0,
            vec![5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0],
        ),
        (
            SyntheticDataset::LiveJournalLike,
            100_000.0,
            vec![50_000.0, 100_000.0, 150_000.0, 200_000.0, 250_000.0],
        ),
    ];
    for (ds, fixed_budget, budget_grid) in cases {
        let s = lj_scale(ds, opts.scale);
        // Budgets scale with dataset size so the seeding regime matches.
        let bscale = s;
        for &h in &h_grid {
            let inst = scalability_instance(ds, h, fixed_budget * bscale, s, opts.seed);
            for kind in [AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm] {
                let (alloc, stats) =
                    TiEngine::new(&inst, kind, opts.engine_cfg(scalability_config(opts.seed)))
                        .run();
                time_h.push(vec![
                    ds.to_string(),
                    h.to_string(),
                    kind.name().into(),
                    fmt(stats.elapsed.as_secs_f64()),
                    alloc.num_seeds().to_string(),
                    fmt(stats.total_revenue()),
                ]);
                mem.push(vec![
                    ds.to_string(),
                    h.to_string(),
                    kind.name().into(),
                    format!("{:.4}", stats.rr_memory_gib()),
                    stats.total_theta().to_string(),
                    alloc.num_seeds().to_string(),
                ]);
            }
            println!("[fig5/table3] {ds} h={h} done");
        }
        let budgets = if opts.quick {
            vec![budget_grid[0], *budget_grid.last().expect("non-empty grid")]
        } else {
            budget_grid
        };
        for budget in budgets {
            let inst = scalability_instance(ds, 5, budget * bscale, s, opts.seed);
            for kind in [AlgorithmKind::TiCsrm, AlgorithmKind::TiCarm] {
                let (alloc, stats) =
                    TiEngine::new(&inst, kind, opts.engine_cfg(scalability_config(opts.seed)))
                        .run();
                time_b.push(vec![
                    ds.to_string(),
                    fmt(budget * bscale),
                    kind.name().into(),
                    fmt(stats.elapsed.as_secs_f64()),
                    alloc.num_seeds().to_string(),
                    fmt(stats.total_revenue()),
                ]);
            }
            println!("[fig5] {ds} budget={budget} done");
        }
    }
    time_h.emit();
    time_b.emit();
    mem.emit();
}

/// Ablation: CELF-style lazy heaps vs eager full scans.
pub fn ablation_lazy(opts: Opts) {
    let mut t = Table::new(
        "ablation_lazy_vs_eager",
        &[
            "dataset",
            "mode",
            "time_s",
            "candidate_evals",
            "revenue",
            "seeds",
        ],
    );
    let inst = quality_instance(
        SyntheticDataset::EpinionsLike,
        ModelKind::Linear.at(0.2),
        10,
        opts.scale,
        opts.seed,
    );
    for lazy in [true, false] {
        let cfg = ScalableConfig {
            lazy,
            ..opts.engine_cfg(quality_config(opts.seed, opts.paper_eps))
        };
        let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        t.push(vec![
            "epinions-like".into(),
            if lazy { "lazy".into() } else { "eager".into() },
            fmt(stats.elapsed.as_secs_f64()),
            stats.candidate_evaluations.to_string(),
            fmt(stats.total_revenue()),
            alloc.num_seeds().to_string(),
        ]);
    }
    t.emit();
}

/// Ablation: Algorithm 2's strict termination vs Algorithm 1's
/// continue-past-infeasible.
pub fn ablation_termination(opts: Opts) {
    let mut t = Table::new(
        "ablation_termination",
        &["dataset", "alpha", "mode", "revenue", "seeds", "time_s"],
    );
    let inst_of = |alpha: f64| {
        quality_instance(
            SyntheticDataset::EpinionsLike,
            ModelKind::Linear.at(alpha),
            10,
            opts.scale,
            opts.seed,
        )
    };
    for alpha in [0.2, 0.5] {
        let inst = inst_of(alpha);
        let eval = EvalMethod::RrSets {
            theta: eval_theta(&inst),
        };
        for strict in [true, false] {
            let cfg = ScalableConfig {
                strict_termination: strict,
                ..opts.engine_cfg(quality_config(opts.seed, opts.paper_eps))
            };
            let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
            let report = evaluate_allocation(&inst, &alloc, eval, 1);
            t.push(vec![
                "epinions-like".into(),
                format!("{alpha}"),
                if strict {
                    "strict (Alg.2)".into()
                } else {
                    "continue (Alg.1)".into()
                },
                fmt(report.total_revenue()),
                alloc.num_seeds().to_string(),
                fmt(stats.elapsed.as_secs_f64()),
            ]);
        }
    }
    t.emit();
}

/// Ablation: OPIM-style online stopping rule vs the TIM-style fixed-θ
/// schedule, on the Table-3-style TI-CSRM scalability workload — RR sets
/// drawn (both streams counted), wall time, and independently evaluated
/// revenue at equal ε. The `opim_vs_fixed_theta` entry of
/// `BENCH_rrsets.json` records a full-size run of this experiment.
pub fn ablation_opim(opts: Opts) {
    let mut t = Table::new(
        "ablation_opim",
        &[
            "dataset",
            "strategy",
            "rr_sets",
            "theta_total",
            "bound_checks",
            "time_s",
            "revenue",
            "seeds",
        ],
    );
    let ds = SyntheticDataset::DblpLike;
    let s = lj_scale(ds, opts.scale);
    let inst = scalability_instance(ds, 5, 10_000.0 * s, s, opts.seed);
    let eval = EvalMethod::RrSets {
        theta: eval_theta(&inst),
    };
    let mut drawn = [0u64; 2];
    let mut wall = [0f64; 2];
    for (i, strategy) in [SamplingStrategy::FixedTheta, SamplingStrategy::OnlineBounds]
        .into_iter()
        .enumerate()
    {
        let cfg = ScalableConfig {
            sampling: strategy,
            ..opts.engine_cfg(scalability_config(opts.seed))
        };
        let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        let report = evaluate_allocation(&inst, &alloc, eval, opts.seed ^ 0x0B);
        drawn[i] = stats.rr_sets_sampled;
        wall[i] = stats.elapsed.as_secs_f64();
        t.push(vec![
            ds.to_string(),
            strategy.name().into(),
            stats.rr_sets_sampled.to_string(),
            stats.total_theta().to_string(),
            stats.bound_checks.to_string(),
            fmt(stats.elapsed.as_secs_f64()),
            fmt(report.total_revenue()),
            alloc.num_seeds().to_string(),
        ]);
        println!("[ablation-opim] {} done", strategy.name());
    }
    t.emit();
    println!(
        "[ablation-opim] sets drawn: fixed {} vs online {} ({:.1}% fewer); wall {:.2}s vs {:.2}s",
        drawn[0],
        drawn[1],
        100.0 * (1.0 - drawn[1] as f64 / drawn[0].max(1) as f64),
        wall[0],
        wall[1],
    );
}

/// Ablation (PR 8): shared cross-advertiser RR pool vs private per-ad
/// streams. The first arm is the fig5-style h-sweep — `h` identical ads
/// over one Weighted-Cascade model, where the pool serves every ad from a
/// single group arena, so total RR sets sampled should grow sublinearly in
/// `h` while the private baseline grows as `h·θ`. The second arm puts four
/// distinct-or-equal topic mixtures over ONE topical TIC table to exercise
/// the importance-reweighted tenant path. The `rr_pool_sharing` entry of
/// `BENCH_rrsets.json` records a full-size run of this experiment.
pub fn pool_ablation(opts: Opts) {
    let mut t = Table::new(
        "pool_ablation",
        &[
            "workload",
            "h",
            "rr_sharing",
            "rr_sets",
            "pool_groups",
            "pooled_ads",
            "reweighted_ads",
            "mem_mib",
            "time_s",
            "revenue",
            "seeds",
        ],
    );
    let ds = SyntheticDataset::DblpLike;
    let s = lj_scale(ds, opts.scale);
    let push_run = |t: &mut Table, workload: &str, h: usize, inst: &RmInstance, sharing: bool| {
        let cfg = ScalableConfig {
            rr_sharing: sharing,
            ..opts.engine_cfg(scalability_config(opts.seed))
        };
        let (alloc, stats) = TiEngine::new(inst, AlgorithmKind::TiCsrm, cfg).run();
        let eval = EvalMethod::RrSets {
            theta: eval_theta(inst),
        };
        let report = evaluate_allocation(inst, &alloc, eval, opts.seed ^ 0x0C);
        t.push(vec![
            workload.into(),
            h.to_string(),
            if sharing { "on" } else { "off" }.into(),
            stats.rr_sets_sampled.to_string(),
            stats.pool_groups.to_string(),
            stats.pooled_ads.to_string(),
            stats.reweighted_ads.to_string(),
            fmt(stats.rr_memory_bytes as f64 / (1024.0 * 1024.0)),
            fmt(stats.elapsed.as_secs_f64()),
            fmt(report.total_revenue()),
            alloc.num_seeds().to_string(),
        ]);
        stats.rr_sets_sampled
    };
    // Arm 1: identical ads, h-sweep (the fig5 sublinearity claim).
    let hs: &[usize] = if opts.quick { &[2, 5] } else { &[5, 10, 15] };
    for &h in hs {
        let inst = scalability_instance(ds, h, 10_000.0 * s, s, opts.seed);
        let private = push_run(&mut t, "identical-wc", h, &inst, false);
        let pooled = push_run(&mut t, "identical-wc", h, &inst, true);
        println!(
            "[pool-ablation] h={h}: private {private} sets vs pooled {pooled} \
             ({:.1}% fewer)",
            100.0 * (1.0 - pooled as f64 / private.max(1) as f64),
        );
    }
    // Arm 2: one shared 2-topic TIC table, mixtures [.7,.3]/[.3,.7]/[.5,.5]
    // and a repeat of the founder's — one group, one identical twin, two
    // reweighted tenants.
    {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let graph = std::sync::Arc::new(ds.generate(s, opts.seed));
        let tic = std::sync::Arc::new(rm_diffusion::TicModel::topical(
            &graph,
            2,
            Default::default(),
            &mut rng,
        ));
        let mixtures: [&[f32]; 4] = [&[0.7, 0.3], &[0.3, 0.7], &[0.5, 0.5], &[0.7, 0.3]];
        let ads = mixtures
            .iter()
            .map(|m| {
                rm_core::Advertiser::new(1.0, 10_000.0 * s, rm_diffusion::TopicDistribution::new(m))
            })
            .collect();
        let inst = rm_core::RmInstance::build_tic(
            graph,
            tic,
            ads,
            rm_core::IncentiveModel::Linear { alpha: 0.2 },
            rm_core::SingletonMethod::OutDegree,
            opts.seed ^ 0x5CA1E,
        );
        let private = push_run(&mut t, "tic-mixtures", 4, &inst, false);
        let pooled = push_run(&mut t, "tic-mixtures", 4, &inst, true);
        println!("[pool-ablation] tic-mixtures: private {private} sets vs pooled {pooled}");
    }
    t.emit();
}

/// Ablation: singleton-spread estimation method behind incentive pricing.
pub fn ablation_singleton(opts: Opts) {
    use rm_core::SingletonMethod;
    let mut t = Table::new(
        "ablation_singleton_method",
        &[
            "method",
            "pricing_time_s",
            "revenue",
            "seeding_cost",
            "seeds",
        ],
    );
    let ds = SyntheticDataset::EpinionsLike;
    let graph = std::sync::Arc::new(ds.generate(opts.scale, opts.seed));
    let tic = rm_diffusion::TicModel::weighted_cascade(&graph);
    let ads: Vec<rm_core::Advertiser> = setup::table2_terms(ds, 10, opts.scale)
        .into_iter()
        .map(|(cpe, b)| {
            rm_core::Advertiser::new(cpe, b, rm_diffusion::TopicDistribution::uniform(1))
        })
        .collect();
    let methods: Vec<(&str, SingletonMethod)> = vec![
        (
            "rr-estimate",
            SingletonMethod::RrEstimate {
                theta: graph.num_nodes() * 40,
            },
        ),
        (
            "monte-carlo",
            SingletonMethod::MonteCarlo {
                runs: if opts.quick { 100 } else { 1000 },
            },
        ),
        ("out-degree", SingletonMethod::OutDegree),
    ];
    for (name, method) in methods {
        let t0 = std::time::Instant::now();
        let inst = rm_core::RmInstance::build(
            graph.clone(),
            &tic,
            ads.clone(),
            rm_core::IncentiveModel::Linear { alpha: 0.2 },
            method,
            opts.seed,
        );
        let pricing = t0.elapsed().as_secs_f64();
        let cfg = opts.engine_cfg(quality_config(opts.seed, opts.paper_eps));
        let (alloc, _) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
        let eval = EvalMethod::RrSets {
            theta: eval_theta(&inst),
        };
        let report = evaluate_allocation(&inst, &alloc, eval, 5);
        t.push(vec![
            name.into(),
            fmt(pricing),
            fmt(report.total_revenue()),
            fmt(report.total_seeding_cost()),
            alloc.num_seeds().to_string(),
        ]);
    }
    t.emit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_experiments_run() {
        let opts = Opts {
            scale: 0.004,
            quick: true,
            ..Default::default()
        };
        table1(opts);
        table2(opts);
        fig1(opts);
    }
}
