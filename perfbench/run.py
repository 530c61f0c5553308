#!/usr/bin/env python3
"""Builds the allocator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch-wc --seed 1 --seconds 10 --trace 0

The Rust program under perfbench/src is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). It prints every metric it
measured as one JSON record on its last stdout line. This script keeps the
metrics BENCHMARK.json names for the mode (`end_to_end` with --trace 0,
`per_layer` with --trace 1), checks their units, prints each one by name
with its unit, and ends with the one-line JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero without a result line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus set-up and checks; past this it is hung.
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {workloads}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", source_rev(),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run failed with exit code {run.returncode}")
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    spec = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    correct = record["failed"] == 0
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        got = record["metrics"].get(name)
        if got is None or got["value"] is None:
            if args.trace == 0:
                print(f"perfbench: {args.workload} did not measure {name}", file=sys.stderr)
                correct = False
                continue
            # A layer this workload does not exercise.
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            print(f"perfbench: {name} measured in {got['unit']}, declared {unit}", file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
    print("-- metrics --")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
