//! perfbench — one benchmark for the allocator.
//!
//! Drives the public API of `rm-graph`, `rm-rrsets` and `rm-core` from
//! outside, one workload per process:
//!
//! ```text
//! perfbench --workload <batch-wc|serve-churn|pooled-tic|lj-ingest>
//!           --seed <n> --seconds <s> --trace <0|1> [--rev <id>]
//! ```
//!
//! Every input (graph, instance, churn script) is generated from `--seed`.
//! The timed operations repeat until `--seconds` of them have run. The
//! last stdout line is one JSON record with every metric measured, its
//! unit, the operation counts and the record context; `run.py` selects
//! the metrics `BENCHMARK.json` names from it.

mod alloc;
mod ingest;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use rm_core::{ScalableConfig, Window};
use rm_graph::seed::stream_seed;

use trace::{timed, Clock, Tracer};

/// Least number of set-ups per run; `setup_s` is their mean.
pub const SETUP_REPS: usize = 15;
/// Least wall time of a run's set-up phase, so millisecond-sized set-ups
/// are sampled across the host's fast and slow spells.
pub const SETUP_SECONDS: f64 = 3.0;

/// Seed of every workload's graph. Like the paper's datasets, a workload's
/// graph is fixed; `--seed` drives everything random about a run: the
/// engine's RR streams, the churn script and the sampler streams.
pub const DATASET_SEED: u64 = 20_170_419;

/// Where run records, spans and scratch files go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Input streams derived from the workload seed.
pub const ENGINE_STREAM: u64 = 2;
pub const SCRIPT_STREAM: u64 = 3;
pub const SAMPLE_STREAM: u64 = 4;

/// Everything one workload run shares: its inputs' seed, its time budget,
/// the thread caps, the span recorder and the record being filled.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `available_parallelism`; every thread cap is set to it explicitly.
    pub threads: usize,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    context: BTreeMap<&'static str, String>,
    /// Wall time of each unit operation, with whether it was traced.
    op_walls: Vec<(bool, f64)>,
    ops_clock: Option<Clock>,
}

impl Ctx {
    /// Derived seed of one input stream.
    pub fn stream(&self, stream: u64) -> u64 {
        stream_seed(self.seed, stream)
    }

    /// The scalability setting of the paper (ε = 0.3, w = 5000) with both
    /// thread caps pinned to this host's parallelism.
    pub fn engine_cfg(&self) -> ScalableConfig {
        ScalableConfig {
            epsilon: 0.3,
            window: Window::Size(5_000),
            max_sets_per_ad: 2_000_000,
            sampler_threads: self.threads,
            selection_threads: self.threads,
            seed: self.stream(ENGINE_STREAM),
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.insert(key, value.to_string());
    }

    /// Counts one operation — a timed public call together with its output
    /// check. A typed error or a failed check counts as a failure.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what}: {e}");
                false
            }
        }
    }

    /// Runs the workload's set-up at least `min_reps` times and for at
    /// least [`SETUP_SECONDS`], records the mean as `setup_s` and returns
    /// the last result.
    ///
    /// The mean, not the median: on a shared host a millisecond-sized
    /// set-up runs in fast and slow spells of a fraction of a second to a
    /// few seconds each, about 1.5× apart. The median of one run's set-ups
    /// jumps between the two levels; the mean over several seconds moves
    /// only with the share of slow spells.
    pub fn setup<T>(&mut self, min_reps: usize, mut f: impl FnMut(&mut Tracer) -> T) -> T {
        let clock = Clock::start();
        let mut walls = Vec::new();
        let mut last = None;
        while walls.len() < min_reps.max(1) || clock.secs() < SETUP_SECONDS {
            // Drop the previous set-up before timing the next one.
            drop(last.take());
            let (out, wall) = timed(|| f(&mut self.tracer));
            walls.push(wall);
            last = Some(out);
        }
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        self.set("setup_s", mean, "s");
        self.note("setup_reps", walls.len());
        self.note("setup_s_median", median(&walls));
        // INVARIANT: the loop runs at least once.
        last.expect("setup ran at least once")
    }

    /// True while the run's time budget is not used up. The first call
    /// starts the budget clock; at least one operation always runs.
    pub fn more_ops(&mut self) -> bool {
        let clock = *self.ops_clock.get_or_insert_with(Clock::start);
        self.op_walls.is_empty() || clock.secs() < self.seconds
    }

    /// Starts one unit operation. In a traced run, span recording is on
    /// for every other operation, so the run measures its own overhead.
    pub fn begin_op(&mut self) -> bool {
        let on = self.traced && self.op_walls.len().is_multiple_of(2);
        self.tracer.set_on(on);
        self.tracer.next_op();
        on
    }

    /// Ends a unit operation begun with [`Self::begin_op`].
    pub fn end_op(&mut self, traced: bool, wall: f64) {
        self.op_walls.push((traced, wall));
        self.tracer.set_on(self.traced);
    }

    /// Runs `f` as one unit operation and returns its result and wall time.
    pub fn unit_op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let on = self.begin_op();
        let (out, wall) = timed(|| f(&mut self.tracer));
        self.end_op(on, wall);
        (out, wall)
    }

    /// Records `op_p50_s` (and, traced, the overhead of recording spans).
    fn finish_ops(&mut self) {
        let all: Vec<f64> = self.op_walls.iter().map(|&(_, w)| w).collect();
        self.set("op_p50_s", median(&all), "s");
        self.note("unit_ops", all.len());
        self.note("unit_op_s_samples", format!("{all:?}"));
        let pick = |on: bool| -> Vec<f64> {
            self.op_walls
                .iter()
                .filter(|&&(t, _)| t == on)
                .map(|&(_, w)| w)
                .collect()
        };
        let (on, off) = (pick(true), pick(false));
        if self.traced && !on.is_empty() && !off.is_empty() {
            let overhead = median(&on) / median(&off) - 1.0;
            self.set("trace.overhead_frac", overhead, "ratio");
        }
    }

    fn record_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}, \"context\": {");
        for (i, (key, value)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": \"{}\"", value.replace('"', "'"));
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <batch-wc|serve-churn|pooled-tic|\
                 lj-ingest> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]"
            );
            std::process::exit(2);
        }
    };
    let run: fn(&mut Ctx) = match args.workload.as_str() {
        "batch-wc" => alloc::batch_wc,
        "pooled-tic" => alloc::pooled_tic,
        "serve-churn" => serve::serve_churn,
        "lj-ingest" => ingest::lj_ingest,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        threads,
        tracer: Tracer::new(args.traced),
        out_dir,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        context: BTreeMap::new(),
        op_walls: Vec::new(),
        ops_clock: None,
    };
    ctx.note("workload", &args.workload);
    ctx.note("seed", args.seed);
    ctx.note("seconds", args.seconds);
    ctx.note("trace", u8::from(args.traced));
    ctx.note("rev", &args.rev);
    ctx.note("available_parallelism", threads);
    ctx.note("sampler_threads", threads);
    ctx.note("selection_threads", threads);

    run(&mut ctx);

    ctx.finish_ops();
    if let Some(peak) = peak_rss_bytes() {
        ctx.set("peak_rss_bytes", peak as f64, "B");
    }
    let frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    ctx.set("ops_failed_frac", frac, "ratio");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    if args.traced {
        let path = ctx.out_dir.join(format!("{stem}.spans.jsonl"));
        match ctx.tracer.write(&path) {
            Ok(()) => ctx.note("spans_file", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for (name, (value, unit)) in &ctx.metrics {
        println!("{name} = {value} {unit}");
    }
    for (key, value) in &ctx.context {
        println!("# {key}: {value}");
    }
    let record = ctx.record_json(&args.workload);
    let path = ctx.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{record}");
}
