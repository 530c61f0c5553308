//! CLI contract tests for the `experiments` binary: an unknown experiment
//! id must exit nonzero and print the list of valid ids, so a typo'd CI
//! step fails loudly instead of green-skipping a whole artifact; malformed
//! flag values must likewise exit 2 with the usage text.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn unknown_id_exits_nonzero_and_lists_valid_ids() {
    let out = experiments()
        .arg("no-such-experiment")
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(2), "unknown id must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id: no-such-experiment"),
        "stderr must name the offending id, got:\n{stderr}"
    );
    for id in ["table1", "fig5", "scale", "serve", "bench-merge", "all"] {
        assert!(
            stderr.contains(id),
            "usage listing must include `{id}`, got:\n{stderr}"
        );
    }
}

#[test]
fn unknown_id_is_rejected_before_any_experiment_runs() {
    // A typo after a valid id must not first run the valid experiment.
    let out = experiments()
        .args(["table1", "no-such-experiment"])
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(2), "unknown id must exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("[table1] finished"),
        "table1 ran before the unknown id was rejected:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id: no-such-experiment"));
}

#[test]
fn no_arguments_exits_nonzero_with_usage() {
    let out = experiments().output().expect("run experiments binary");
    assert_eq!(out.status.code(), Some(2), "bare invocation must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments"));
}

#[test]
fn help_exits_zero() {
    let out = experiments()
        .arg("--help")
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(0), "--help is not an error");
}

#[test]
fn malformed_flag_values_exit_2_with_usage() {
    // Bad or missing flag values are usage errors, not panics (exit 101),
    // and a non-positive or non-finite scale is rejected up front instead
    // of running a degenerate experiment.
    let cases: &[&[&str]] = &[
        &["fig1", "--scale", "abc"],
        &["fig1", "--scale", "0"],
        &["fig1", "--scale", "-0.5"],
        &["fig1", "--scale", "NaN"],
        &["fig1", "--scale", "inf"],
        &["fig1", "--scale"],
        &["fig1", "--seed"],
        &["fig1", "--seed", "-3"],
        &["fig1", "--sampler-threads", "x"],
        &["fig1", "--selection-threads", "1.5"],
    ];
    for args in cases {
        let out = experiments()
            .args(*args)
            .output()
            .expect("run experiments binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(args[1]) && stderr.contains("usage: experiments"),
            "{args:?}: stderr must name the flag and print usage, got:\n{stderr}"
        );
    }
}

/// A fresh, empty scratch directory under the system temp dir.
fn empty_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn bench_merge_creates_its_output_dir() {
    // From a directory with no `target/experiments/` yet, the merge must
    // create it and write the blob (it used to panic with exit 101).
    let dir = empty_dir("merge");
    let out = experiments()
        .arg("bench-merge")
        .current_dir(&dir)
        .output()
        .expect("run experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let blob = std::fs::read_to_string(dir.join("target/experiments/bench_trajectory.json"))
        .expect("trajectory blob written");
    assert!(blob.contains("\"components\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_merge_write_failure_exits_1_with_a_message() {
    // `target` is a plain file, so the output directory cannot be created:
    // a message and exit 1, not a panic.
    let dir = empty_dir("merge-fail");
    std::fs::write(dir.join("target"), "not a directory").expect("write blocker");
    let out = experiments()
        .arg("bench-merge")
        .current_dir(&dir)
        .output()
        .expect("run experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("cannot write the trajectory blob"),
        "stderr must explain the failure, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aliases_of_one_sweep_run_it_once() {
    // `fig5`, `table3` and `scalability` name one sweep; it runs once and
    // writes its CSVs once.
    let out = experiments()
        .args([
            "fig5",
            "table3",
            "scalability",
            "--quick",
            "--scale",
            "0.0005",
        ])
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let finished: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("] finished in"))
        .collect();
    assert_eq!(finished.len(), 1, "one sweep, one run:\n{stdout}");
    assert!(finished[0].starts_with("[scalability]"), "{stdout}");
    assert_eq!(
        stdout.matches("table3_memory_vs_h.csv").count(),
        1,
        "{stdout}"
    );
}
