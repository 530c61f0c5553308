//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <id> [--scale f] [--seed s] [--quick] [--paper-eps] [--paper-scale]
//!             [--selection-threads n] [--sampler-threads n]
//!
//! ids: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 lt-quality tic-quality
//!      ablation-lazy ablation-term ablation-singleton ablation-opim pool-ablation
//!      quality   (fig2+fig3+fig4)
//!      scalability (fig5+table3)
//!      scale     (out-of-core snapshot tier; not part of `all`)
//!      serve     (resident-engine replay driver; not part of `all`)
//!      bench-merge (fold BENCH_*.json into one trajectory blob)
//!      all
//! ```
//!
//! `fig2`/`fig3` share one sweep (same runs, different reported metric), as
//! do `fig5`/`table3`. Every id resolves to canonical runs (`fig23`,
//! `scalability`, …) and each canonical run executes once per invocation,
//! so `fig2 fig3` or `quality fig4` runs each sweep once.

use rm_bench::experiments::{self, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    let mut opts = Opts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = flag_value(&mut it, "--scale", "a finite number > 0", |v| {
                    v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0)
                });
            }
            "--seed" => {
                opts.seed =
                    flag_value(&mut it, "--seed", "an unsigned integer", |v| v.parse().ok());
            }
            "--quick" => opts.quick = true,
            "--paper-eps" => opts.paper_eps = true,
            "--paper-scale" => opts.scale = 1.0,
            "--selection-threads" => opts.selection_threads = thread_flag(&mut it, &a),
            "--sampler-threads" => opts.sampler_threads = thread_flag(&mut it, &a),
            "--help" | "-h" => {
                usage();
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    // Resolve every id before running any, so a typo late in the list
    // fails at once instead of after the experiments before it. Aliases and
    // groups resolve to canonical runs, and each runs once.
    let mut runs: Vec<&Run> = Vec::new();
    for id in &ids {
        let Some(resolved) = lookup(id) else {
            eprintln!("unknown experiment id: {id}");
            usage();
            std::process::exit(2);
        };
        for r in resolved {
            if !runs.iter().any(|q| q.name == r.name) {
                runs.push(r);
            }
        }
    }
    let threads = |t: usize| {
        if t == usize::MAX {
            "hw".to_string()
        } else {
            t.to_string()
        }
    };
    let names: Vec<&str> = runs.iter().map(|r| r.name).collect();
    println!(
        "# experiments: {names:?}  scale={} seed={} quick={} paper_eps={} selection_threads={} \
         sampler_threads={}",
        opts.scale,
        opts.seed,
        opts.quick,
        opts.paper_eps,
        threads(opts.selection_threads),
        threads(opts.sampler_threads)
    );
    for r in runs {
        let t0 = std::time::Instant::now();
        (r.run)(opts);
        println!(
            "[{}] finished in {:.1}s",
            r.name,
            t0.elapsed().as_secs_f64()
        );
    }
}

/// One canonical run: a sweep that writes its artifacts once.
struct Run {
    name: &'static str,
    run: fn(Opts),
    /// Part of `all`.
    in_all: bool,
}

const fn run(name: &'static str, run: fn(Opts), in_all: bool) -> Run {
    Run { name, run, in_all }
}

/// Every canonical run, in the order `all` runs them.
const RUNS: &[Run] = &[
    run("table1", experiments::table1, true),
    run("table2", experiments::table2, true),
    run("fig1", experiments::fig1, true),
    // Figures 2 and 3 report two metrics of one sweep.
    run("fig23", experiments::fig2_fig3, true),
    run("fig4", experiments::fig4, true),
    run("lt-quality", experiments::lt_quality, true),
    run("tic-quality", experiments::tic_quality, true),
    // Figure 5 and Table 3 report time and memory of one sweep.
    run("scalability", experiments::fig5_table3, true),
    run("ablation-lazy", experiments::ablation_lazy, true),
    run("ablation-term", experiments::ablation_termination, true),
    run("ablation-singleton", experiments::ablation_singleton, true),
    run("ablation-opim", experiments::ablation_opim, true),
    run("pool-ablation", experiments::pool_ablation, true),
    // Not folded into `all`: the full tier is a multi-GB, half-hour-class
    // run; invoke it explicitly (CI smokes it with --quick).
    run("scale", rm_bench::scale::scale_tier, false),
    // Likewise explicit-only: the resident-engine replay (recorded runs
    // land in BENCH_serve.json) and the benchmark-trajectory merge.
    run("serve", rm_bench::serve::serve, false),
    run("bench-merge", bench_merge, false),
];

/// The canonical runs an id names; `None` for an unknown id.
fn lookup(id: &str) -> Option<Vec<&'static Run>> {
    let names: &[&str] = match id {
        "all" => return Some(RUNS.iter().filter(|r| r.in_all).collect()),
        "fig2" | "fig3" => &["fig23"],
        "fig5" | "table3" => &["scalability"],
        "quality" => &["fig23", "fig4"],
        _ => return RUNS.iter().find(|r| r.name == id).map(|r| vec![r]),
    };
    Some(
        names
            .iter()
            .filter_map(|&name| RUNS.iter().find(|r| r.name == name))
            .collect(),
    )
}

fn bench_merge(_: Opts) {
    if let Err(e) = rm_bench::merge::bench_merge() {
        eprintln!("[bench-merge] cannot write the trajectory blob: {e}");
        std::process::exit(1);
    }
}

/// Parses the value following `flag` with `parse`; a missing or malformed
/// value is a usage error (exit 2 with the usage text), never a panic.
fn flag_value<T>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Some(raw) = it.next() else {
        eprintln!("{flag} needs a value ({want})");
        usage();
        std::process::exit(2);
    };
    parse(&raw).unwrap_or_else(|| {
        eprintln!("{flag} must be {want}, got {raw:?}");
        usage();
        std::process::exit(2);
    })
}

/// A worker-count flag: a non-negative integer, 0 meaning "all hardware
/// threads" (`usize::MAX`).
fn thread_flag(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match flag_value(it, flag, "an integer (0 = hardware)", |v| {
        v.parse::<usize>().ok()
    }) {
        0 => usize::MAX,
        t => t,
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <id>... [--scale f] [--seed s] [--quick] [--paper-eps] [--paper-scale]\n\
              [--selection-threads n] [--sampler-threads n]\n\
         ids: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 lt-quality tic-quality\n\
              ablation-lazy ablation-term ablation-singleton ablation-opim\n\
              pool-ablation quality scalability scale serve bench-merge all"
    );
}
