#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark of the simulated PLFS/PFS stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <ckpt_n1|md_storm|restart> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark (and the libraries it
links from ../src) into .bench_build/perfbench; later runs only rebuild
what changed. The benchmark binary runs the workload in its own process,
so its getrusage and peak-RSS figures belong to that workload alone. Its
report goes to standard output; the last line is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 1 the last
traced repetition's spans are written to .bench_build/perfbench/spans/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ckpt_n1", "md_storm", "restart")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so the report's last line stays JSON.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        cfg = json.load(f)
    return [m["name"] for m in cfg["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stderr.write(proc.stdout)
        fail("reported metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - set(want))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
