#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about a minute with a warm build).

    python3 perfbench/selftest.py

Runs a tiny instance of every workload run.py knows (kv_closed_n3 too,
which BENCHMARK.json leaves out), traced and untraced, through
run.py and checks that the result line has the contract's keys, that
every metric named in BENCHMARK.json is printed with its unit, and that
the gates pass. Then checks that a gate fires: exploring the seeded
consensus-bug problem must count as a wrong verdict.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402  (the workload list)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for w in bench_run.WORKLOADS:
        for trace in (0, 1):
            res = run(w, trace)
            where = "%s trace=%d" % (w, trace)
            before = len(failures)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (where, sorted(res)))
            if not res.get("correct") or res.get("failed") != 0:
                failures.append("%s: gates failed: %s" % (where, res))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                failures.append("%s: metrics/units differ from BENCHMARK.json"
                                % where)
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    failures.append("%s: %s is not a number" % (where, k))
            print(("ok  " if len(failures) == before else "BAD ") + where)

    bug = run("explore_register_n4", 0, ["--problem", "consensus-bug"])
    if bug["correct"] or bug["failed"] < 1:
        failures.append("consensus-bug was not counted as a wrong verdict: %s"
                        % bug)
    else:
        print("ok  consensus-bug counted as %d wrong verdict(s) of %d"
              % (bug["failed"], bug["attempted"]))

    for f in failures:
        print("FAIL " + f)
    print("selftest %s" % ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
