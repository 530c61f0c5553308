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
//! do `fig5`/`table3`.

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
    let threads = |t: usize| {
        if t == usize::MAX {
            "hw".to_string()
        } else {
            t.to_string()
        }
    };
    println!(
        "# experiments: {ids:?}  scale={} seed={} quick={} paper_eps={} selection_threads={} \
         sampler_threads={}",
        opts.scale,
        opts.seed,
        opts.quick,
        opts.paper_eps,
        threads(opts.selection_threads),
        threads(opts.sampler_threads)
    );
    for id in ids {
        run(&id, opts);
    }
}

fn run(id: &str, opts: Opts) {
    let t0 = std::time::Instant::now();
    match id {
        "table1" => experiments::table1(opts),
        "table2" => experiments::table2(opts),
        "fig1" => experiments::fig1(opts),
        "fig2" | "fig3" | "fig23" => experiments::fig2_fig3(opts),
        "fig4" => experiments::fig4(opts),
        "lt-quality" => experiments::lt_quality(opts),
        "tic-quality" => experiments::tic_quality(opts),
        "fig5" | "table3" => experiments::fig5_table3(opts),
        "ablation-lazy" => experiments::ablation_lazy(opts),
        "ablation-term" => experiments::ablation_termination(opts),
        "ablation-singleton" => experiments::ablation_singleton(opts),
        "ablation-opim" => experiments::ablation_opim(opts),
        "pool-ablation" => experiments::pool_ablation(opts),
        "quality" => {
            experiments::fig2_fig3(opts);
            experiments::fig4(opts);
        }
        "scalability" => experiments::fig5_table3(opts),
        // Not folded into `all`: the full tier is a multi-GB, half-hour-class
        // run; invoke it explicitly (CI smokes it with --quick).
        "scale" => rm_bench::scale::scale_tier(opts),
        // Likewise explicit-only: the resident-engine replay (recorded runs
        // land in BENCH_serve.json) and the benchmark-trajectory merge.
        "serve" => rm_bench::serve::serve(opts),
        "bench-merge" => {
            if let Err(e) = rm_bench::merge::bench_merge() {
                eprintln!("[bench-merge] cannot write the trajectory blob: {e}");
                std::process::exit(1);
            }
        }
        "all" => {
            experiments::table1(opts);
            experiments::table2(opts);
            experiments::fig1(opts);
            experiments::fig2_fig3(opts);
            experiments::fig4(opts);
            experiments::lt_quality(opts);
            experiments::tic_quality(opts);
            experiments::fig5_table3(opts);
            experiments::ablation_lazy(opts);
            experiments::ablation_termination(opts);
            experiments::ablation_singleton(opts);
            experiments::ablation_opim(opts);
            experiments::pool_ablation(opts);
        }
        other => {
            eprintln!("unknown experiment id: {other}");
            usage();
            std::process::exit(2);
        }
    }
    println!("[{id}] finished in {:.1}s", t0.elapsed().as_secs_f64());
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
