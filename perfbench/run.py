#!/usr/bin/env python3
"""Repository benchmark: explorer time-to-verdict and KV service latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the wfd
library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs one workload with the
harness, checks its correctness gates and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md lists both, with the layer each one measures). --tiny and
--problem exist for selftest.py only.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = (
    "explore_register_n4",
    "explore_liveness_crash_n3",
    "kv_closed_n3",
    "kv_failover_n3",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

EXPLORE_COUNTS = (
    "states", "runs", "steps", "fp_prunes", "sleep_skips", "hb_races",
    "backtrack_points", "commute_skips", "graph_states", "graph_edges",
    "injected_crashes",
)

PER_LAYER_UNITS = dict(
    [("explore." + k, "count") for k in EXPLORE_COUNTS]
    + [
        ("explore.steps_per_state", "ratio"),
        ("explore.states_per_s", "1/s"),
        ("explore.choose.count", "count"),
        ("explore.choose.self_s", "s"),
        ("explore.self_s", "s"),
        ("scenario.build.count", "count"),
        ("scenario.build.self_s", "s"),
        ("property.check.count", "count"),
        ("property.check.self_s", "s"),
        ("property.encode.self_s", "s"),
        ("liveness.goal.count", "count"),
        ("liveness.goal.self_s", "s"),
        ("sim.step_ns", "ns"),
        ("sim.fingerprint_ns", "ns"),
        ("host.post_wait_us.p50", "us"),
        ("host.post_wait_us.p99", "us"),
        ("smr.submit_to_apply_us", "us"),
        ("kv.client.failovers", "count"),
        ("kv.p50_growth", "ratio"),
        ("kv.unavailable_ms", "ms"),
        ("kv.latency_samples", "count"),
        ("abcast.ops_per_decision", "ratio"),
        ("consensus.decisions", "count"),
        ("transport.msgs_per_op", "ratio"),
        ("fd.detect_ms", "ms"),
        ("fd.takeover_ms", "ms"),
        ("fd.leader_changes", "count"),
        ("gen.late_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)

# One run (build excluded) must end well inside the 180 s allowance.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, bench_dir):
    """Configures (once) and builds the harness; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instance (harness self-test)")
    ap.add_argument("--problem", default="",
                    help="replace the explored problem (harness self-test)")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)

    build_dir, harness = build(root, bench_dir)
    cmd = [harness, "--workload=" + args.workload,
           "--seed=" + str(args.seed), "--seconds=" + str(args.seconds),
           "--trace=" + str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append("--spans-out=" + os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    if args.tiny:
        cmd.append("--tiny")
    if args.problem:
        cmd.append("--problem=" + args.problem)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("harness exited %d without a result" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        if name in raw["metrics"]:
            value = raw["metrics"][name]
        elif args.trace:
            value = 0  # A layer this workload does not exercise.
        else:
            fail("harness did not report " + name)
        metrics[name] = {"value": value, "unit": unit}

    gates_ok = all(g["ok"] for g in raw["gates"])
    context = dict(raw["context"])
    context["gates"] = raw["gates"]
    context["harness_s"] = round(time.monotonic() - started, 3)
    print("perfbench context: " + json.dumps(context, sort_keys=True))
    result = {
        "correct": gates_ok and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
