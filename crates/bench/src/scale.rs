//! `scale` experiment — the out-of-core snapshot tier at LiveJournal-class
//! size.
//!
//! Pipeline: generate a directed Chung–Lu graph at n = 10⁷ / m = 10⁸ (the
//! LiveJournal class), write it as SNAP-style text, ingest that text once —
//! the only time the text is ever parsed — write the versioned binary CSR
//! snapshot, reload it, assert the reloaded graph is bit-identical, sweep
//! the work-stealing batch sampler across forced thread counts on the
//! reloaded graph (asserting bit-identical arenas at every count), and
//! finish with one pooled (`rr_sharing = on`) TI-CSRM allocation over five
//! identical Weighted-Cascade advertisers.
//!
//! `--quick` shrinks to n = 20 000 / m = 100 000 so CI can smoke the full
//! stage sequence in seconds. Results go to
//! `target/experiments/scale_tier.csv` plus a JSON summary
//! (`target/experiments/scale_summary.json`); full-size numbers are
//! recorded in `BENCH_scale.json` at the repo root.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::SmallRng, SeedableRng};
use rm_core::{AlgorithmKind, ScalableConfig, TiEngine};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::{degree, generators, io as graph_io, snapshot, NodeId};
use rm_rrsets::PreparedSampler;

use crate::experiments::Opts;
use crate::report::{fmt, out_dir, Table};
use crate::setup::scalability_config;

/// Stage sizes for one tier.
struct Sizes {
    n: usize,
    m: usize,
    /// RR sets per arm of the sampler thread sweep.
    batch: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            n: 20_000,
            m: 100_000,
            batch: 20_000,
        }
    } else {
        Sizes {
            n: 10_000_000,
            m: 100_000_000,
            batch: 200_000,
        }
    }
}

/// Peak resident set size of this process so far, from `/proc/self/status`
/// (`VmHWM`). `None` where procfs is unavailable — the experiment records
/// the peak when it can and stays silent when it cannot.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn file_bytes(path: &PathBuf) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Runs the scale tier. Sizes are fixed by the tier (`--quick` vs full), not
/// by `--scale`: the point is one reproducible LiveJournal-class datum, not
/// a sweep.
pub fn scale_tier(opts: Opts) {
    let sz = sizes(opts.quick);
    let dir = out_dir().join("scale");
    std::fs::create_dir_all(&dir).expect("create scale working dir");
    let text_path = dir.join("edges.txt");
    let snap_path = dir.join("graph.rmcsr");
    let mut t = Table::new("scale_tier", &["stage", "wall_s", "detail"]);

    // Stage 1: in-memory build of the LiveJournal-class graph.
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let g = generators::chung_lu_directed(sz.n, sz.m, 2.3, &mut rng);
    let build_s = t0.elapsed().as_secs_f64();
    t.push(vec![
        "build".into(),
        fmt(build_s),
        format!("chung_lu n={} m={}", g.num_nodes(), g.num_edges()),
    ]);
    println!(
        "[scale] built n={} m={} in {:.1}s",
        g.num_nodes(),
        g.num_edges(),
        build_s
    );
    let max_outdeg = degree::out_degree_stats(&g).max;

    // Stage 2: SNAP-style text, written once.
    let t0 = Instant::now();
    graph_io::write_edge_list_file(&g, &text_path).expect("write edge list");
    let text_write_s = t0.elapsed().as_secs_f64();
    let text_bytes = file_bytes(&text_path);
    t.push(vec![
        "text-write".into(),
        fmt(text_write_s),
        format!("{text_bytes} bytes"),
    ]);

    // Stage 3: the one-and-only text parse, through the streaming compacted
    // reader (count-header preallocation, byte scanner, rank-table remap,
    // counting-sort build).
    let t0 = Instant::now();
    let file = std::fs::File::open(&text_path).expect("open edge list");
    let (compacted, istats) =
        graph_io::read_edge_list_compacted_with_stats(std::io::BufReader::new(file))
            .expect("ingest edge list");
    let text_ingest_s = t0.elapsed().as_secs_f64();
    t.push(vec![
        "text-ingest".into(),
        fmt(text_ingest_s),
        format!(
            "peak {} bytes, header_prealloc={}, n={}",
            istats.peak_bytes,
            istats.header_preallocated,
            compacted.graph.num_nodes()
        ),
    ]);
    println!(
        "[scale] text ingest {text_ingest_s:.1}s (peak {} bytes)",
        istats.peak_bytes
    );
    // The text round trip drops isolated nodes (edge lists cannot express
    // them — that is one reason the snapshot tier exists), so the ingested
    // graph is not compared array for array. It must still carry exactly
    // the source's edges: as many, and each one, mapped back through
    // `original_ids`, an edge of the source (a CSR row holds no duplicates,
    // so together these make the two edge sets equal).
    // INVARIANT: a reader that drops or invents edges must abort the run.
    assert_eq!(
        compacted.graph.num_edges(),
        g.num_edges(),
        "text ingest changed the edge count"
    );
    let original = |v: NodeId| {
        NodeId::try_from(compacted.original_ids[v as usize]).expect("text ingest invented an id")
    };
    for (_, u, v) in compacted.graph.edges() {
        let (u, v) = (original(u), original(v));
        assert!(
            g.out_neighbors(u).binary_search(&v).is_ok(),
            "text ingest invented the edge {u} -> {v}"
        );
    }
    drop(compacted);

    // Stage 4: binary snapshot of the original graph.
    let t0 = Instant::now();
    snapshot::write_snapshot_file(&g, None, &snap_path).expect("write snapshot");
    let snap_write_s = t0.elapsed().as_secs_f64();
    let snap_bytes = file_bytes(&snap_path);
    t.push(vec![
        "snapshot-write".into(),
        fmt(snap_write_s),
        format!("{snap_bytes} bytes"),
    ]);

    // Stage 5: reload and verify bit-identity (isolated nodes included).
    let t0 = Instant::now();
    let snap = snapshot::read_snapshot_file(&snap_path).expect("read snapshot");
    let reload_s = t0.elapsed().as_secs_f64();
    // INVARIANT: the snapshot tier's whole contract is that reload returns
    // the exact in-memory graph; a mismatch must abort the run.
    assert!(
        snap.graph == g,
        "reloaded snapshot differs from source graph"
    );
    drop(g);
    let reload_speedup = text_ingest_s / reload_s.max(1e-9);
    t.push(vec![
        "snapshot-reload".into(),
        fmt(reload_s),
        format!("bit-identical, {reload_speedup:.1}x faster than text ingest"),
    ]);
    println!("[scale] snapshot reload {reload_s:.2}s = {reload_speedup:.1}x text ingest");

    // Stage 6: work-stealing sampler sweep on the reloaded graph. Forced
    // thread counts exercise the sharded path even on single-core runners;
    // every count must reproduce the single-thread arena bit-for-bit.
    let probs = TicModel::weighted_cascade(&snap.graph).ad_probs(&TopicDistribution::uniform(1));
    let mut sampler = PreparedSampler::new(&snap.graph, &probs);
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        sampler.set_thread_count(threads);
        let t0 = Instant::now();
        let out = sampler.sample_batch(&snap.graph, sz.batch, opts.seed ^ 0x5CA1E, 0);
        let wall = t0.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(out),
            // INVARIANT: sampling is deterministic in the global set index;
            // any cross-thread-count divergence is a correctness bug.
            Some(r) => assert!(*r == out, "sampler output differs at {threads} threads"),
        }
        t.push(vec![
            format!("sample-t{threads}"),
            fmt(wall),
            format!(
                "{} sets, {:.0} sets/s",
                sz.batch,
                sz.batch as f64 / wall.max(1e-9)
            ),
        ]);
        println!(
            "[scale] sample_batch {} sets @ {threads} threads: {wall:.2}s",
            sz.batch
        );
        sweep.push((threads, wall));
    }
    // Per-ad budget for stage 7, derived from the sweep sample. The engine
    // charges budgets with ρ = π̂ + incentives — expected engagement spend
    // counts, not just seed payments — so the first hub commit charges about
    // cpe·n·f_max (f_max = the most-covered node's RR-set fraction) plus its
    // incentive 0.2·(max_outdeg + 1). A budget of three such charges keeps
    // Algorithm 2's strict termination from firing on the first candidate at
    // any graph size; a fixed budget cannot, because f_max is a property of
    // the realized cascade model, not of n.
    let budget = {
        let (arena, _) = reference.as_ref().expect("sweep ran");
        let mut counts = vec![0u32; snap.graph.num_nodes()];
        for &v in arena.node_slice() {
            counts[v as usize] += 1;
        }
        let f_max = f64::from(counts.iter().copied().max().unwrap_or(0)) / sz.batch as f64;
        let hub_pi = snap.graph.num_nodes() as f64 * f_max;
        3.0 * (hub_pi + 0.2 * (max_outdeg as f64 + 1.0))
    };
    drop(reference);
    println!("[scale] derived per-ad budget {budget:.0}");

    // Stage 7: one pooled allocation — five identical WC advertisers served
    // from a single shared RR arena (`rr_sharing = on`).
    let graph = Arc::new(snap.graph);
    let tic = TicModel::weighted_cascade(&graph);
    let ads = (0..5)
        .map(|_| rm_core::Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    let inst = rm_core::RmInstance::build(
        graph,
        &tic,
        ads,
        rm_core::IncentiveModel::Linear { alpha: 0.2 },
        rm_core::SingletonMethod::OutDegree,
        opts.seed ^ 0x5CA1E,
    );
    let mut cfg = ScalableConfig {
        rr_sharing: true,
        ..opts.engine_cfg(scalability_config(opts.seed))
    };
    if opts.quick {
        // The CI smoke only needs the pooled path exercised, not the full
        // Table-3 sample size.
        cfg.max_sets_per_ad = 200_000;
    }
    let t0 = Instant::now();
    let (alloc, stats) = TiEngine::new(&inst, AlgorithmKind::TiCsrm, cfg).run();
    let alloc_s = t0.elapsed().as_secs_f64();
    t.push(vec![
        "pooled-alloc".into(),
        fmt(alloc_s),
        format!(
            "h=5 rr_sharing=on: {} rr sets, {} seeds, revenue {}, rr_mem {} bytes",
            stats.rr_sets_sampled,
            alloc.num_seeds(),
            fmt(stats.total_revenue()),
            stats.rr_memory_bytes
        ),
    ]);
    println!(
        "[scale] pooled allocation {alloc_s:.1}s ({} rr sets, {} seeds)",
        stats.rr_sets_sampled,
        alloc.num_seeds()
    );

    let peak = peak_rss_bytes();
    t.push(vec![
        "peak-rss".into(),
        "-".into(),
        peak.map_or("unavailable".into(), |b| format!("{b} bytes")),
    ]);
    t.emit();

    // Machine-readable summary for BENCH_scale.json (hand-rolled JSON; the
    // workspace has no serialization crates).
    let sweep_json = sweep
        .iter()
        .map(|(threads, wall)| format!("\"{threads}\": {wall:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"tier\": \"{tier}\", \"n\": {n}, \"m\": {m},\n",
            "  \"build_s\": {build:.2}, \"text_write_s\": {tw:.2}, \"text_bytes\": {tb},\n",
            "  \"text_ingest_s\": {ti:.2}, \"ingest_peak_bytes\": {ip},\n",
            "  \"snapshot_write_s\": {sw:.2}, \"snapshot_bytes\": {sb},\n",
            "  \"snapshot_reload_s\": {sr:.3}, \"reload_speedup\": {spd:.1}, \"bit_identical\": true,\n",
            "  \"sampler_sweep\": {{ \"batch\": {batch}, \"wall_s_by_threads\": {{ {sweep} }} }},\n",
            "  \"pooled_alloc\": {{ \"h\": 5, \"budget\": {budget:.1}, \"wall_s\": {aw:.2}, ",
            "\"rr_sets\": {sets}, \"seeds\": {seeds}, \"revenue\": {rev:.1}, \"rr_memory_bytes\": {rrm} }},\n",
            "  \"peak_rss_bytes\": {rss}\n",
            "}}\n"
        ),
        tier = if opts.quick { "quick" } else { "full" },
        n = sz.n,
        m = sz.m,
        build = build_s,
        tw = text_write_s,
        tb = text_bytes,
        ti = text_ingest_s,
        ip = istats.peak_bytes,
        sw = snap_write_s,
        sb = snap_bytes,
        sr = reload_s,
        spd = reload_speedup,
        batch = sz.batch,
        sweep = sweep_json,
        budget = budget,
        aw = alloc_s,
        sets = stats.rr_sets_sampled,
        seeds = alloc.num_seeds(),
        rev = stats.total_revenue(),
        rrm = stats.rr_memory_bytes,
        rss = peak.map_or("null".into(), |b| b.to_string()),
    );
    let json_path = out_dir().join("scale_summary.json");
    std::fs::write(&json_path, &json).expect("write scale summary");
    println!("[json] {}", json_path.display());
    print!("{json}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_reads_on_linux() {
        // Graceful-None contract: the helper must never panic, and on the
        // Linux CI runners it should actually report a positive peak.
        if cfg!(target_os = "linux") {
            assert!(super::peak_rss_bytes().unwrap_or(1) > 0);
        }
    }
}
