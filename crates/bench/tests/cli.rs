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
