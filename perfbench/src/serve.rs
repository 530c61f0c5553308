//! `serve-churn`: a seeded arrival / departure / graph-delta script against
//! one long-lived `ResidentEngine` — the only workload that reaches the
//! resident layer.
//!
//! The script bulk-admits h/2 ads, then repeats a cycle of three events:
//! an arrival of a random inactive ad, a departure of a random active ad,
//! and a delta that removes random edges and re-inserts the previous
//! delta's removals. One pass plays the whole script on a fresh engine;
//! passes repeat until the time budget is spent, and every pass must
//! replay the first one's event log exactly. A unit operation is one
//! cycle: arrival + departure + delta, without the caller-side rebuild of
//! the post-delta instance (timed apart, as `instance.build`).

use std::sync::Arc;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rm_core::{
    Advertiser, AlgorithmKind, GraphDelta, IncentiveModel, ResidentEngine, ResidentError,
    RmInstance, RunStats, ScalableConfig, ServeEvent, ServeOp, SingletonMethod, TiEngine,
};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::seed::{mix64, stream_seed};
use rm_graph::{builder, NodeId, SyntheticDataset};
use rm_rrsets::{PreparedSampler, RrCoverage};

use crate::alloc::graph_counters;
use crate::trace::{timed, Clock};
use crate::{median, Ctx, DATASET_SEED, SAMPLE_STREAM, SCRIPT_STREAM, SETUP_REPS};

const SCALE: f64 = 0.01;
const H: usize = 8;
/// Per-ad budget per unit of scale.
const BUDGET: f64 = 10_000.0;
/// Arrival / departure / delta cycles per pass.
const CYCLES: usize = 16;
/// Edges each delta removes.
const DELTA_EDGES: usize = 40;
/// Sets per ad. Every delta resamples its invalidated sets one by one and
/// re-ingests the full θ of every active ad, so the cap sets its cost.
const SET_CAP: usize = 20_000;

const KIND: AlgorithmKind = AlgorithmKind::TiCsrm;

type Edge = (NodeId, NodeId);

enum Event {
    Arrive(usize),
    Depart(usize),
    /// Indices into the base edge list.
    Delta {
        removes: Vec<usize>,
        inserts: Vec<usize>,
    },
}

struct Script {
    bulk: Vec<usize>,
    events: Vec<Event>,
    fingerprint: u64,
}

/// A uniformly random index `i` with `flags[i] == want`.
fn pick(rng: &mut SmallRng, flags: &[bool], want: bool) -> usize {
    let pool: Vec<usize> = (0..flags.len()).filter(|&i| flags[i] == want).collect();
    pool[rng.random_range(0..pool.len())]
}

fn make_script(seed: u64, edges: &[Edge]) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut active = vec![false; H];
    let mut bulk = Vec::with_capacity(H / 2);
    while bulk.len() < H / 2 {
        let j = pick(&mut rng, &active, false);
        active[j] = true;
        bulk.push(j);
    }
    let mut removed = vec![false; edges.len()];
    let mut prev: Vec<usize> = Vec::new();
    let mut events = Vec::with_capacity(3 * CYCLES);
    for _ in 0..CYCLES {
        let j = pick(&mut rng, &active, false);
        active[j] = true;
        events.push(Event::Arrive(j));
        let j = pick(&mut rng, &active, true);
        active[j] = false;
        events.push(Event::Depart(j));
        let mut now: Vec<usize> = Vec::with_capacity(DELTA_EDGES);
        while now.len() < DELTA_EDGES {
            let e = rng.random_range(0..edges.len());
            if !removed[e] && !now.contains(&e) {
                now.push(e);
            }
        }
        for &e in &prev {
            removed[e] = false;
        }
        for &e in &now {
            removed[e] = true;
        }
        events.push(Event::Delta {
            removes: now.clone(),
            inserts: std::mem::replace(&mut prev, now),
        });
    }
    let mut fp = mix64(bulk.len() as u64);
    let mut fold = |x: u64| fp = mix64(fp ^ x);
    bulk.iter().for_each(|&j| fold(j as u64));
    for ev in &events {
        match ev {
            Event::Arrive(j) => fold(1 << 32 | *j as u64),
            Event::Depart(j) => fold(2 << 32 | *j as u64),
            Event::Delta { removes, inserts } => {
                for &e in removes.iter().chain(inserts) {
                    let (u, v) = edges[e];
                    fold(u64::from(u) << 32 | u64::from(v));
                }
            }
        }
    }
    Script {
        bulk,
        events,
        fingerprint: fp,
    }
}

/// The scalability-protocol instance (WC, CPE 1, α = 0.2 linear incentives
/// on out-degree proxies) over an explicit edge list, so pre- and
/// post-delta instances share one construction path.
fn instance(n: usize, edges: &[Edge], ads: usize, seed: u64) -> RmInstance {
    let graph = Arc::new(builder::graph_from_edges(n, edges));
    let tic = TicModel::weighted_cascade(&graph);
    let ads = (0..ads)
        .map(|_| Advertiser::new(1.0, BUDGET * SCALE, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        graph,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::OutDegree,
        seed,
    )
}

fn kept(edges: &[Edge], removed: &[bool]) -> Vec<Edge> {
    edges
        .iter()
        .zip(removed)
        .filter(|(_, &r)| !r)
        .map(|(&e, _)| e)
        .collect()
}

fn event_ok(res: &Result<ServeEvent, ResidentError>) -> Result<(), String> {
    match res {
        Err(e) => Err(e.to_string()),
        Ok(ev) if ev.revenue.is_nan() || ev.revenue <= 0.0 || ev.seeds_total == 0 => Err(format!(
            "empty allocation after the event: revenue {}, {} seeds",
            ev.revenue, ev.seeds_total
        )),
        Ok(ev) if ev.invalidated_sets != ev.resampled_sets => Err(format!(
            "{} sets invalidated but {} resampled",
            ev.invalidated_sets, ev.resampled_sets
        )),
        Ok(_) => Ok(()),
    }
}

#[derive(Default)]
struct Latencies {
    bulk: Vec<f64>,
    arrival: Vec<f64>,
    departure: Vec<f64>,
    delta: Vec<f64>,
    script_s: f64,
    events: usize,
}

struct PassOut {
    events: Vec<ServeEvent>,
    stats: RunStats,
    active: Vec<bool>,
    removed: Vec<bool>,
}

/// Everything a pass needs besides the context.
struct Setup<'a> {
    base: &'a Arc<RmInstance>,
    edges: &'a [Edge],
    n: usize,
    seed: u64,
    cfg: ScalableConfig,
}

pub fn serve_churn(ctx: &mut Ctx) {
    let seed = DATASET_SEED;
    let cfg = ScalableConfig {
        max_sets_per_ad: SET_CAP,
        ..ctx.engine_cfg()
    };
    let (edges, n, base, valid) = ctx.setup(SETUP_REPS, |tr| {
        let graph = tr.span("graph.generate", |_| {
            SyntheticDataset::DblpLike.generate(SCALE, seed)
        });
        let edges: Vec<Edge> = graph.edges().map(|(_, u, v)| (u, v)).collect();
        let n = graph.num_nodes();
        let inst = Arc::new(tr.span("instance.build", |_| instance(n, &edges, H, seed)));
        let valid = tr.span("engine.new", |_| {
            ResidentEngine::new(Arc::clone(&inst), KIND, cfg)
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        (edges, n, inst, valid)
    });
    if !ctx.check("ResidentEngine::new", valid) {
        return;
    }
    let script = make_script(ctx.stream(SCRIPT_STREAM), &edges);
    ctx.note("script_fingerprint", format!("{:016x}", script.fingerprint));
    ctx.note(
        "script",
        format!(
            "bulk {} of {H} ads, then {CYCLES} cycles of arrival, departure, \
             {DELTA_EDGES}-edge delta",
            H / 2
        ),
    );
    let setup = Setup {
        base: &base,
        edges: &edges,
        n,
        seed,
        cfg,
    };
    let mut lat = Latencies::default();
    let mut first: Option<PassOut> = None;
    while ctx.more_ops() {
        let Some(out) = run_pass(ctx, &setup, &script, &mut lat) else {
            break;
        };
        if let Some(f) = &first {
            let same = f.events == out.events && f.stats == out.stats;
            let outcome = same
                .then_some(())
                .ok_or("event log or end state differs from the first pass".into());
            ctx.check("script replay", outcome);
        }
        first.get_or_insert(out);
    }
    let Some(f) = first else { return };
    record(ctx, &f, &lat);
    graph_counters(ctx, &base.graph);

    // End state against a cold batch run on the final tenant set and graph,
    // outside the timed operations.
    let final_edges = kept(&edges, &f.removed);
    let active = f.active.iter().filter(|&&a| a).count();
    let cold_inst = instance(n, &final_edges, active, seed);
    let (_, cold) = TiEngine::new(&cold_inst, KIND, cfg).run();
    let rel =
        (f.stats.total_revenue() - cold.total_revenue()).abs() / cold.total_revenue().max(1e-9);
    ctx.set("resident.end_rel_diff", rel, "ratio");
    let outcome = if rel <= cfg.epsilon {
        Ok(())
    } else {
        Err(format!("resident revenue {rel:.4} away from cold, above ε"))
    };
    ctx.check("end state vs cold TiEngine", outcome);

    if ctx.traced {
        replay_delta(ctx, &cold_inst, &f);
    }
}

/// Plays the whole script on a fresh engine. `None` after a failed event.
fn run_pass(ctx: &mut Ctx, s: &Setup, script: &Script, lat: &mut Latencies) -> Option<PassOut> {
    let clock = Clock::start();
    let mut eng = match ResidentEngine::new(Arc::clone(s.base), KIND, s.cfg) {
        Ok(e) => e,
        Err(e) => {
            ctx.check("ResidentEngine::new", Err(e.to_string()));
            return None;
        }
    };
    let (res, wall) = timed(|| {
        ctx.tracer
            .span("resident.bulk", |_| eng.add_advertisers(&script.bulk))
    });
    lat.bulk.push(wall);
    if !ctx.check("add_advertisers", event_ok(&res)) {
        return None;
    }
    let mut active = vec![false; H];
    script.bulk.iter().for_each(|&j| active[j] = true);
    let mut removed = vec![false; s.edges.len()];
    let (mut traced, mut cycle_s) = (false, 0.0);
    for (k, ev) in script.events.iter().enumerate() {
        if k % 3 == 0 {
            (traced, cycle_s) = (ctx.begin_op(), 0.0);
        }
        let (what, res, wall) = match ev {
            Event::Arrive(j) => {
                active[*j] = true;
                let (r, w) = timed(|| {
                    ctx.tracer
                        .span("resident.arrival", |_| eng.add_advertiser(*j))
                });
                lat.arrival.push(w);
                ("add_advertiser", r, w)
            }
            Event::Depart(j) => {
                active[*j] = false;
                let (r, w) = timed(|| {
                    ctx.tracer
                        .span("resident.departure", |_| eng.remove_advertiser(*j))
                });
                lat.departure.push(w);
                ("remove_advertiser", r, w)
            }
            Event::Delta { removes, inserts } => {
                inserts.iter().for_each(|&e| removed[e] = false);
                removes.iter().for_each(|&e| removed[e] = true);
                let inst = ctx.tracer.span("instance.build", |_| {
                    instance(s.n, &kept(s.edges, &removed), H, s.seed)
                });
                let delta = GraphDelta {
                    inserts: inserts.iter().map(|&e| s.edges[e]).collect(),
                    removes: removes.iter().map(|&e| s.edges[e]).collect(),
                };
                let (r, w) = timed(|| {
                    ctx.tracer.span("resident.delta", |_| {
                        eng.apply_graph_delta(Arc::new(inst), &delta)
                    })
                });
                lat.delta.push(w);
                ("apply_graph_delta", r, w)
            }
        };
        cycle_s += wall;
        if !ctx.check(what, event_ok(&res)) {
            return None;
        }
        if k % 3 == 2 {
            ctx.end_op(traced, cycle_s);
        }
    }
    lat.script_s += clock.secs();
    lat.events += 1 + script.events.len();
    let events = eng.events().to_vec();
    let (_, stats) = eng.finish();
    Some(PassOut {
        events,
        stats,
        active,
        removed,
    })
}

/// Records the first pass's deterministic counters next to the latencies.
fn record(ctx: &mut Ctx, f: &PassOut, lat: &Latencies) {
    ctx.set("rr_memory_bytes", f.stats.rr_memory_bytes as f64, "B");
    ctx.set("engine.revenue", f.stats.total_revenue(), "revenue");
    ctx.set("engine.seeds", f.stats.total_seeds() as f64, "count");
    ctx.set("engine.rounds", f.stats.rounds as f64, "count");
    ctx.set("tim.theta_total", f.stats.total_theta() as f64, "count");
    ctx.set(
        "tim.sample_capped",
        f64::from(u8::from(f.stats.sample_capped)),
        "bool",
    );
    ctx.set("resident.bulk_s", median(&lat.bulk), "s");
    ctx.set("resident.arrival_s", median(&lat.arrival), "s");
    ctx.set("resident.departure_s", median(&lat.departure), "s");
    ctx.set("resident.delta_s", median(&lat.delta), "s");
    ctx.set(
        "resident.events_per_s",
        lat.events as f64 / lat.script_s,
        "1/s",
    );
    ctx.note("arrival_s_samples", format!("{:?}", lat.arrival));
    ctx.note("departure_s_samples", format!("{:?}", lat.departure));
    ctx.note("delta_s_samples", format!("{:?}", lat.delta));
    let mean_rounds = |want: fn(&ServeOp) -> bool| {
        let rounds: Vec<f64> = f.events[1..]
            .iter()
            .filter(|e| want(&e.op))
            .map(|e| e.rounds as f64)
            .collect();
        rounds.iter().sum::<f64>() / rounds.len().max(1) as f64
    };
    let arrival = mean_rounds(|op| matches!(op, ServeOp::Arrival { .. }));
    let departure = mean_rounds(|op| matches!(op, ServeOp::Departure { .. }));
    let delta = mean_rounds(|op| matches!(op, ServeOp::GraphDelta { .. }));
    ctx.set("resident.rounds_per_arrival", arrival, "count");
    ctx.set("resident.rounds_per_departure", departure, "count");
    ctx.set("resident.rounds_per_delta", delta, "count");
    let invalidated: u64 = f.events.iter().map(|e| e.invalidated_sets).sum();
    ctx.set(
        "resident.delta_invalidated_sets",
        invalidated as f64,
        "count",
    );
    // Every delta re-ingests the full θ of each active ad; the tenant count
    // at each delta equals the count at the end of the pass.
    let reingested = (CYCLES * f.stats.total_theta()) as f64;
    ctx.set(
        "resident.delta_useful_ratio",
        invalidated as f64 / reingested,
        "ratio",
    );
    ctx.note("events", format!("{:?}", f.events));
}

/// Replays the per-ad work one `apply_graph_delta` hides, on the final
/// graph: re-gathering the sampler, resampling the invalidated sets one by
/// one (as the engine does) and re-ingesting the ad's full θ.
fn replay_delta(ctx: &mut Ctx, inst: &RmInstance, f: &PassOut) {
    let g = &inst.graph;
    let n = g.num_nodes();
    let threads = ctx.threads;
    let seed = ctx.stream(SAMPLE_STREAM);
    let thetas: Vec<usize> = f
        .stats
        .theta_per_ad
        .iter()
        .copied()
        .filter(|&t| t > 0)
        .collect();
    let invalidated: u64 = f.events.iter().map(|e| e.invalidated_sets).sum();
    let per_ad = invalidated as usize / (CYCLES * thetas.len().max(1));
    let no_seeds = vec![false; n];
    let (mut sets, mut entries, mut index_bytes) = (0usize, 0usize, 0usize);
    let tr = &mut ctx.tracer;
    tr.next_op();
    for (j, &theta) in thetas.iter().enumerate() {
        let ad_seed = stream_seed(seed, j as u64);
        // Configured as the engine configures its per-ad samplers: a thread
        // cap, so each call still asks the host for its parallelism.
        let sampler = tr.span("sampler.prepare", |_| {
            let mut s = PreparedSampler::for_model(g, &inst.model(j));
            s.set_thread_cap(threads);
            s
        });
        tr.span("resident.delta_resample", |_| {
            for id in 0..per_ad {
                sampler.sample_batch(g, 1, ad_seed, id as u64);
            }
        });
        let (arena, _) = tr.span("sampler.sample", |_| {
            sampler.sample_batch(g, theta, ad_seed, 0)
        });
        sets += arena.len();
        entries += arena.total_nodes();
        let mut cov = RrCoverage::new(n);
        tr.span("index.ingest", |_| cov.add_batch(&arena, &no_seeds));
        index_bytes += cov.memory_bytes();
    }
    let tr = &ctx.tracer;
    let (prepare, resample) = (
        tr.total("sampler.prepare"),
        tr.total("resident.delta_resample"),
    );
    let (sample, ingest) = (tr.total("sampler.sample"), tr.total("index.ingest"));
    ctx.set("resident.delta_resample_s_replay", resample, "s");
    ctx.set("resident.delta_reindex_s_replay", ingest, "s");
    ctx.set("sampler.prepare_s", prepare, "s");
    ctx.set("sampler.sample_s", sample, "s");
    ctx.set("sampler.sets", sets as f64, "count");
    ctx.set("sampler.rr_nodes", entries as f64, "count");
    ctx.set(
        "sampler.nodes_per_set",
        entries as f64 / sets.max(1) as f64,
        "ratio",
    );
    ctx.set("sampler.sets_per_s", sets as f64 / sample, "1/s");
    ctx.set("index.ingest_s", ingest, "s");
    ctx.set("index.entries", entries as f64, "count");
    ctx.set("index.entries_per_s", entries as f64 / ingest, "1/s");
    ctx.set("index.memory_bytes", index_bytes as f64, "B");
}
