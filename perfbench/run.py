#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload social|road|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds libsimdx
and the perfbench program into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs only rebuild what changed. The
program's own report lines are passed through, then a table of the metrics
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1) with unit and sample count, then the result as one JSON line.
Exit status is non-zero, with no result line, when the build fails, the
program fails or a listed end-to-end metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    # Relative paths keep the socket path short; they resolve in build_dir.
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", f"{tag}.sock"]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join("traces", f"{tag}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"{args.workload} exited with status {done.returncode}")
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"{'metric':34} {'value':>14} {'unit':10} samples")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} missing")
            # A layer this workload does not exercise.
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"{m['name']:34} {got['value']:14.6g} {m['unit']:10} "
              f"{got['samples'] if got['samples'] else 'not exercised'}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
