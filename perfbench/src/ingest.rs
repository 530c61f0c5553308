//! `lj-ingest`: a directed Chung–Lu graph with LiveJournal's degree shape
//! through the graph-ingest layer — SNAP-style text ingest, binary
//! snapshot write and bit-identical reload — and one large RR batch from
//! the work-stealing sampler on the reloaded graph. It is the one workload
//! whose graph exceeds the per-core caches and whose graph layer costs more
//! than milliseconds.
//!
//! Set-up generates the graph and writes its text. A unit operation is one
//! cycle: ingest, snapshot write, reload, sampler preparation and a batch
//! at `nproc` threads. A single-thread arm runs once per run beside it and
//! must produce the bit-identical arena.

use std::io::BufReader;

use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::{generators, io as graph_io, snapshot};
use rm_rrsets::{PreparedSampler, RrArena};

use crate::alloc::graph_counters;
use crate::trace::timed;
use crate::{median, Ctx, DATASET_SEED, SAMPLE_STREAM};

/// Small enough for a cycle of about half a second, so a run's median is
/// taken over tens of cycles; the 13 MB CSR still exceeds the per-core L2.
const NODES: usize = 100_000;
const EDGES: usize = 1_000_000;
/// LiveJournal's power-law exponent, as in the `scale` tier.
const EXPONENT: f64 = 2.3;
/// RR sets per sampler batch.
const BATCH: usize = 50_000;
/// Least set-ups per run: generating and writing the graph takes about a
/// second.
const LJ_SETUP_REPS: usize = 3;

#[derive(Default)]
struct Walls {
    ingest: Vec<f64>,
    write: Vec<f64>,
    reload: Vec<f64>,
    prepare: Vec<f64>,
    sample: Vec<f64>,
}

pub fn lj_ingest(ctx: &mut Ctx) {
    let seed = DATASET_SEED;
    let sample_seed = ctx.stream(SAMPLE_STREAM);
    let dir = ctx
        .out_dir
        .join(format!("lj-ingest-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        ctx.check("create work dir", Err(e.to_string()));
        return;
    }
    let text = dir.join("edges.txt");
    let snap_path = dir.join("graph.rmcsr");
    let (g, probs, written) = ctx.setup(LJ_SETUP_REPS, |tr| {
        let g = tr.span("graph.generate", |_| {
            let mut rng = SmallRng::seed_from_u64(seed);
            generators::chung_lu_directed(NODES, EDGES, EXPONENT, &mut rng)
        });
        let written = tr.span("graph.text_write", |_| {
            graph_io::write_edge_list_file(&g, &text).map_err(|e| e.to_string())
        });
        let probs = TicModel::weighted_cascade(&g).ad_probs(&TopicDistribution::uniform(1));
        (g, probs, written)
    });
    if ctx.check("write_edge_list_file", written) {
        cycles(ctx, &g, &probs, &text, &snap_path, sample_seed);
    }
    graph_counters(ctx, &g);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("perfbench: cannot remove {}: {e}", dir.display());
    }
}

fn cycles(
    ctx: &mut Ctx,
    g: &rm_graph::CsrGraph,
    probs: &rm_diffusion::AdProbs,
    text: &std::path::Path,
    snap_path: &std::path::Path,
    seed: u64,
) {
    let threads = ctx.threads;
    let mut w = Walls::default();
    let mut first: Option<RrArena> = None;
    let mut ingest_peak = 0usize;
    while ctx.more_ops() {
        let traced = ctx.begin_op();
        let mut cycle_s = 0.0;
        let (res, wall) = timed(|| {
            ctx.tracer.span("graph.text_ingest", |_| {
                std::fs::File::open(text)
                    .and_then(|f| graph_io::read_edge_list_compacted_with_stats(BufReader::new(f)))
            })
        });
        cycle_s += wall;
        w.ingest.push(wall);
        let outcome = match res {
            Ok((c, stats)) if c.graph.num_edges() == g.num_edges() => {
                ingest_peak = stats.peak_bytes;
                Ok(())
            }
            Ok((c, _)) => Err(format!(
                "ingested {} edges, wrote {}",
                c.graph.num_edges(),
                g.num_edges()
            )),
            Err(e) => Err(e.to_string()),
        };
        if !ctx.check("read_edge_list_compacted_with_stats", outcome) {
            break;
        }

        let (res, wall) = timed(|| {
            ctx.tracer.span("graph.snapshot_write", |_| {
                snapshot::write_snapshot_file(g, None, snap_path)
            })
        });
        cycle_s += wall;
        w.write.push(wall);
        if !ctx.check("write_snapshot_file", res.map_err(|e| e.to_string())) {
            break;
        }

        let (res, wall) = timed(|| {
            ctx.tracer
                .span("graph.reload", |_| snapshot::read_snapshot_file(snap_path))
        });
        cycle_s += wall;
        w.reload.push(wall);
        let reloaded = match res {
            Ok(snap) if snap.graph == *g => Ok(snap.graph),
            Ok(_) => Err("reloaded snapshot differs from the source graph".to_string()),
            Err(e) => Err(e.to_string()),
        };
        let outcome = reloaded.as_ref().map(|_| ()).map_err(Clone::clone);
        if !ctx.check("read_snapshot_file", outcome) {
            break;
        }
        let Ok(reloaded) = reloaded else { break };

        let (sampler, wall) = timed(|| {
            ctx.tracer.span("sampler.prepare", |_| {
                let mut s = PreparedSampler::new(&reloaded, probs);
                s.set_thread_count(threads);
                s
            })
        });
        cycle_s += wall;
        w.prepare.push(wall);
        let ((arena, _), wall) = timed(|| {
            ctx.tracer.span("sampler.sample", |_| {
                sampler.sample_batch(&reloaded, BATCH, seed, 0)
            })
        });
        cycle_s += wall;
        w.sample.push(wall);
        let outcome = match &first {
            _ if arena.len() != BATCH => Err(format!("{} sets, asked {BATCH}", arena.len())),
            Some(a) if *a != arena => Err("batch differs from the first cycle's".into()),
            _ => Ok(()),
        };
        ctx.check("sample_batch", outcome);
        first.get_or_insert(arena);
        ctx.end_op(traced, cycle_s);
    }
    let Some(arena) = first else { return };

    // The single-thread arm: same sets, one worker.
    let mut sampler = PreparedSampler::new(g, probs);
    sampler.set_thread_count(1);
    let ((arena_t1, _), wall_t1) = timed(|| {
        ctx.tracer.span("sampler.sample_t1", |_| {
            sampler.sample_batch(g, BATCH, seed, 0)
        })
    });
    let outcome = (arena_t1 == arena)
        .then_some(())
        .ok_or("1-thread arena differs from the nproc arena".into());
    ctx.check("sample_batch at 1 thread", outcome);

    let snapshot_bytes = std::fs::metadata(snap_path).map_or(0, |m| m.len());
    // The batch's payload: offsets plus node ids. The arena's capacity
    // depends on where its doubling growth happened to stop.
    let payload = 8 * (arena.len() + 1) + 4 * arena.total_nodes();
    ctx.set("rr_memory_bytes", payload as f64, "B");
    ctx.set("graph.text_ingest_s", median(&w.ingest), "s");
    ctx.set("graph.snapshot_write_s", median(&w.write), "s");
    ctx.set("graph.reload_s", median(&w.reload), "s");
    ctx.set("graph.snapshot_bytes", snapshot_bytes as f64, "B");
    ctx.set("graph.ingest_peak_bytes", ingest_peak as f64, "B");
    let sample_s = median(&w.sample);
    ctx.set("sampler.prepare_s", median(&w.prepare), "s");
    ctx.set("sampler.sample_s", sample_s, "s");
    ctx.set("sampler.sets", BATCH as f64, "count");
    ctx.set("sampler.rr_nodes", arena.total_nodes() as f64, "count");
    ctx.set(
        "sampler.nodes_per_set",
        arena.total_nodes() as f64 / BATCH as f64,
        "ratio",
    );
    ctx.set("sampler.sets_per_s", BATCH as f64 / sample_s, "1/s");
    ctx.set("sampler.sets_per_s_t1", BATCH as f64 / wall_t1, "1/s");
    ctx.note("batch_sets", BATCH);
    ctx.note("sampler_threads_t1_arm", 1);
}
