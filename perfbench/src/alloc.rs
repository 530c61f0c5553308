//! `batch-wc` and `pooled-tic`: repeated one-shot allocations through
//! `TiEngine::run` — the paper's Fig. 5 runtime and Table 3 memory.
//!
//! The traced run also replays, through the public entry points, the
//! per-ad work `TiEngine::run` hides: sampler preparation, the KPT pilot,
//! sampling θ sets and ingesting them into a coverage index (through the
//! shared pool on `pooled-tic`). What is left of the allocation's wall
//! time is reported as `engine.select_s_derived`.

use std::sync::Arc;

use rand::{rngs::SmallRng, SeedableRng};
use rm_core::{
    Advertiser, AlgorithmKind, IncentiveModel, RmInstance, RunStats, ScalableConfig,
    SeedAllocation, SingletonMethod, TiEngine,
};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::seed::stream_seed;
use rm_graph::{CsrGraph, SyntheticDataset};
use rm_rrsets::{KptEstimator, PreparedSampler, RrCoverage, SharedRrPool, TenantMode, TimConfig};

use crate::trace::Tracer;
use crate::{median, Ctx, DATASET_SEED, SAMPLE_STREAM, SETUP_REPS};

/// `batch-wc`: DBLP-like, Weighted Cascade, TI-CSRM on private streams.
const BATCH_SCALE: f64 = 0.005;
const BATCH_H: usize = 10;
/// Per-ad budget per unit of scale: the top of Fig. 5's DBLP budget axis.
const BATCH_BUDGET: f64 = 30_000.0;

/// `pooled-tic`: one 2-topic TIC table shared by every ad, `rr_sharing` on.
const POOLED_SCALE: f64 = 0.01;
const POOLED_H: usize = 8;
const POOLED_BUDGET: f64 = 10_000.0;
/// Sets per ad; every ad's Eq. 8 θ exceeds it, so the group arena holds
/// exactly this many sets.
const POOLED_SET_CAP: usize = 500_000;
/// Ad `i` mixes the two topics as `MIXTURES[i % 4]`: ads 0, 3, 4, 7 match
/// the group founder, the other four read the shared sets reweighted.
const MIXTURES: [[f32; 2]; 4] = [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5], [0.7, 0.3]];

const KIND: AlgorithmKind = AlgorithmKind::TiCsrm;

pub fn batch_wc(ctx: &mut Ctx) {
    let seed = DATASET_SEED;
    let cfg = ctx.engine_cfg();
    let (inst, valid) = ctx.setup(SETUP_REPS, |tr| {
        let graph = tr.span("graph.generate", |_| {
            SyntheticDataset::DblpLike.generate(BATCH_SCALE, seed)
        });
        let inst = tr.span("instance.build", |_| {
            let tic = TicModel::weighted_cascade(&graph);
            let ads = (0..BATCH_H)
                .map(|_| {
                    let budget = BATCH_BUDGET * BATCH_SCALE;
                    Advertiser::new(1.0, budget, TopicDistribution::uniform(1))
                })
                .collect();
            RmInstance::build(
                Arc::new(graph),
                &tic,
                ads,
                IncentiveModel::Linear { alpha: 0.2 },
                SingletonMethod::OutDegree,
                seed,
            )
        });
        let valid = tr.span("engine.new", |_| {
            TiEngine::try_new(&inst, KIND, cfg).is_ok()
        });
        (inst, valid)
    });
    allocate(ctx, &inst, cfg, valid);
}

pub fn pooled_tic(ctx: &mut Ctx) {
    let seed = DATASET_SEED;
    let cfg = ScalableConfig {
        rr_sharing: true,
        max_sets_per_ad: POOLED_SET_CAP,
        ..ctx.engine_cfg()
    };
    let (inst, valid) = ctx.setup(SETUP_REPS, |tr| {
        let graph = tr.span("graph.generate", |_| {
            SyntheticDataset::DblpLike.generate(POOLED_SCALE, seed)
        });
        let inst = tr.span("instance.build", |_| topical_instance(graph, seed));
        let valid = tr.span("engine.new", |_| {
            TiEngine::try_new(&inst, KIND, cfg).is_ok()
        });
        (inst, valid)
    });
    allocate(ctx, &inst, cfg, valid);
}

fn topical_instance(graph: CsrGraph, seed: u64) -> RmInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tic = Arc::new(TicModel::topical(&graph, 2, Default::default(), &mut rng));
    let ads = (0..POOLED_H)
        .map(|i| {
            let budget = POOLED_BUDGET * POOLED_SCALE;
            Advertiser::new(1.0, budget, TopicDistribution::new(&MIXTURES[i % 4]))
        })
        .collect();
    RmInstance::build_tic(
        Arc::new(graph),
        tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::OutDegree,
        seed,
    )
}

/// Runs `TiEngine::run` until the time budget is spent, checking every
/// allocation and that each run repeats the first one's work exactly.
fn allocate(ctx: &mut Ctx, inst: &RmInstance, cfg: ScalableConfig, valid: bool) {
    if !ctx.check(
        "TiEngine::try_new",
        valid.then_some(()).ok_or("config rejected".into()),
    ) {
        return;
    }
    let engine = TiEngine::new(inst, KIND, cfg);
    let mut walls = Vec::new();
    let mut first: Option<(SeedAllocation, RunStats)> = None;
    while ctx.more_ops() {
        let ((alloc, stats), wall) = ctx.unit_op(|tr| tr.span("engine.run", |_| engine.run()));
        walls.push(wall);
        let outcome = check_allocation(&alloc, &stats, first.as_ref());
        ctx.check("TiEngine::run", outcome);
        first.get_or_insert((alloc, stats));
    }
    let Some((alloc, stats)) = first else { return };
    record(ctx, inst, &alloc, &stats);
    if ctx.traced {
        replay(ctx, inst, &cfg, &stats, median(&walls));
    }
}

fn check_allocation(
    alloc: &SeedAllocation,
    stats: &RunStats,
    first: Option<&(SeedAllocation, RunStats)>,
) -> Result<(), String> {
    let revenue = stats.total_revenue();
    if alloc.num_seeds() == 0 || revenue.is_nan() || revenue <= 0.0 {
        return Err(format!(
            "empty allocation: {} seeds, revenue {}",
            alloc.num_seeds(),
            stats.total_revenue()
        ));
    }
    if !alloc.is_disjoint() {
        return Err("a node endorses two ads".into());
    }
    if let Some((a0, s0)) = first {
        let mut same = stats.clone();
        same.elapsed = s0.elapsed;
        if alloc != a0 || same != *s0 {
            return Err("work counters differ from the first run at this seed".into());
        }
    }
    Ok(())
}

/// Records the allocation's deterministic counters next to its timings.
fn record(ctx: &mut Ctx, inst: &RmInstance, alloc: &SeedAllocation, stats: &RunStats) {
    ctx.set("rr_memory_bytes", stats.rr_memory_bytes as f64, "B");
    ctx.set("engine.revenue", stats.total_revenue(), "revenue");
    ctx.set("engine.seeds", alloc.num_seeds() as f64, "count");
    ctx.set("engine.rounds", stats.rounds as f64, "count");
    ctx.set(
        "engine.candidate_refreshes",
        stats.candidate_refreshes as f64,
        "count",
    );
    ctx.set(
        "engine.candidate_evaluations",
        stats.candidate_evaluations as f64,
        "count",
    );
    ctx.set(
        "engine.contended_rounds",
        stats.contended_rounds as f64,
        "count",
    );
    ctx.set(
        "engine.invalidated_candidates",
        stats.invalidated_candidates as f64,
        "count",
    );
    ctx.set(
        "engine.refreshes_per_round",
        stats.candidate_refreshes as f64 / stats.rounds.max(1) as f64,
        "ratio",
    );
    ctx.set("tim.theta_total", stats.total_theta() as f64, "count");
    ctx.set(
        "tim.sample_capped",
        f64::from(u8::from(stats.sample_capped)),
        "bool",
    );
    ctx.set("pool.groups", stats.pool_groups as f64, "count");
    ctx.set("pool.pooled_ads", stats.pooled_ads as f64, "count");
    ctx.set("pool.reweighted_ads", stats.reweighted_ads as f64, "count");
    graph_counters(ctx, &inst.graph);
    ctx.note("theta_per_ad", format!("{:?}", stats.theta_per_ad));
    ctx.note("seeds_per_ad", format!("{:?}", stats.seeds_per_ad));
    ctx.note("rr_sets_sampled", stats.rr_sets_sampled);
}

/// Graph size plus the set-up spans of the graph and instance layers.
pub fn graph_counters(ctx: &mut Ctx, g: &CsrGraph) {
    ctx.set("graph.nodes", g.num_nodes() as f64, "count");
    ctx.set("graph.edges", g.num_edges() as f64, "count");
    let generate = median(&ctx.tracer.durations("graph.generate"));
    let build = median(&ctx.tracer.durations("instance.build"));
    if generate.is_finite() {
        ctx.set("graph.generate_s", generate, "s");
    }
    if build.is_finite() {
        ctx.set("instance.build_s", build, "s");
    }
}

/// Replays the per-ad work of one allocation through the public entry
/// points, each call in its own span, and derives the selection share.
fn replay(ctx: &mut Ctx, inst: &RmInstance, cfg: &ScalableConfig, stats: &RunStats, alloc_s: f64) {
    let g = &inst.graph;
    let n = g.num_nodes();
    let threads = ctx.threads;
    let seed = ctx.stream(SAMPLE_STREAM);
    let tim = TimConfig {
        epsilon: cfg.epsilon,
        ell: cfg.ell,
        max_sets_per_ad: cfg.max_sets_per_ad,
    };
    let no_seeds = vec![false; n];
    let (mut sets, mut rr_nodes, mut entries, mut index_bytes) = (0usize, 0usize, 0usize, 0usize);
    let tr: &mut Tracer = &mut ctx.tracer;
    tr.next_op();
    let pool = cfg.rr_sharing.then(|| {
        let models: Vec<_> = (0..inst.num_ads()).map(|j| inst.model(j)).collect();
        tr.span("pool.build", |_| {
            SharedRrPool::build(g, &models, cfg.seed, threads)
        })
    });
    for j in 0..inst.num_ads() {
        let theta = stats.theta_per_ad[j];
        let ad_seed = stream_seed(seed, j as u64);
        let mode = pool.as_ref().map_or(TenantMode::Private, |p| p.mode(j));
        let mut cov = if mode == TenantMode::Reweighted {
            RrCoverage::new_weighted(n)
        } else {
            RrCoverage::new(n)
        };
        match (&pool, mode) {
            (Some(p), TenantMode::Identical) => {
                tr.span("tim.kpt", |_| p.kpt(g, j, 1, &tim));
            }
            _ => {
                let sampler = tr.span("sampler.prepare", |_| {
                    let mut s = PreparedSampler::for_model(g, &inst.model(j));
                    s.set_thread_count(threads);
                    s
                });
                tr.span("tim.kpt", |_| {
                    KptEstimator::estimate_with_sampler(g, &sampler, 1, &tim, ad_seed)
                });
                if mode == TenantMode::Private {
                    let (arena, _) = tr.span("sampler.sample", |_| {
                        sampler.sample_batch(g, theta, ad_seed, 0)
                    });
                    sets += arena.len();
                    rr_nodes += arena.total_nodes();
                    entries += arena.total_nodes();
                    tr.span("index.ingest", |_| cov.add_batch(&arena, &no_seeds));
                }
            }
        }
        if let (Some(p), false) = (&pool, mode == TenantMode::Private) {
            // Growing the group arena is the pool's sampling; the ingest
            // inside is the index's. The span's self time is the former.
            tr.span("pool.read", |tr| {
                p.with_range(g, j, 0, theta, |arena, lo, hi, w| {
                    entries += (lo..hi).map(|i| arena.get(i).len()).sum::<usize>();
                    tr.span("index.ingest", |_| match w {
                        Some(w) => cov.add_range_weighted(arena, lo, hi, &no_seeds, w),
                        None => cov.add_range(arena, lo, hi, &no_seeds),
                    })
                })
            });
        }
        index_bytes += cov.memory_bytes();
    }
    if let Some(p) = &pool {
        sets += p.sets_sampled() as usize;
        p.with_range(g, 0, 0, 0, |arena, _, _, _| rr_nodes += arena.total_nodes());
        ctx.set("pool.sets_sampled", p.sets_sampled() as f64, "count");
    }
    let tr = &ctx.tracer;
    let prepare = tr.total("sampler.prepare") + tr.total("pool.build");
    let sample = tr.total("sampler.sample") + tr.self_time("pool.read");
    let ingest = tr.total("index.ingest");
    let kpt = tr.total("tim.kpt");
    ctx.set("sampler.prepare_s", prepare, "s");
    ctx.set("sampler.sample_s", sample, "s");
    ctx.set("sampler.sets", sets as f64, "count");
    ctx.set("sampler.rr_nodes", rr_nodes as f64, "count");
    ctx.set(
        "sampler.nodes_per_set",
        rr_nodes as f64 / sets.max(1) as f64,
        "ratio",
    );
    ctx.set("sampler.sets_per_s", sets as f64 / sample, "1/s");
    ctx.set("index.ingest_s", ingest, "s");
    ctx.set("index.entries", entries as f64, "count");
    ctx.set("index.entries_per_s", entries as f64 / ingest, "1/s");
    ctx.set("index.memory_bytes", index_bytes as f64, "B");
    ctx.set("tim.kpt_s", kpt, "s");
    // Derived, not measured: what the replayed layers leave of the
    // allocation's median wall time.
    ctx.set(
        "engine.select_s_derived",
        (alloc_s - prepare - sample - ingest - kpt).max(0.0),
        "s",
    );
}
