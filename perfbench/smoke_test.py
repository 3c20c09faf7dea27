#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 perfbench/smoke_test.py        # from the root of a checkout

For each workload, runs run.py with --tiny under --trace 0 and --trace 1
and checks that the result line has exactly the four keys of the result format, that no
check failed, and that every metric BENCHMARK.json names for that mode
is present, finite and carries its unit.  Then runs token_ckpt with one
checkpoint byte flipped before read-back and checks that the corruption
is counted as a failed operation in a normal result, not a crash.
Exits 1 on the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace} {extra}: exit "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok, what):
    if not ok:
        sys.exit(f"FAIL {what}")


def main():
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, trace)
            label = f"{workload} trace={trace}"
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(res)}")
            expect(res["correct"] is True and res["failed"] == 0 and
                   res["attempted"] >= 1, f"{label}: checks failed: {res}")
            names = [m["name"] for m in SPEC[group]]
            expect(sorted(res["metrics"]) == sorted(names),
                   f"{label}: metric names differ from BENCHMARK.json")
            for m in SPEC[group]:
                got = res["metrics"][m["name"]]
                expect(got["unit"] == m["unit"],
                       f"{label}: {m['name']} unit {got['unit']}")
                expect(isinstance(got["value"], (int, float)) and
                       math.isfinite(got["value"]),
                       f"{label}: {m['name']} = {got['value']}")
            print(f"ok   {label}: {res['attempted']} checks, "
                  f"{len(names)} metrics")

    res = run("token_ckpt", 0, "--corrupt-ckpt")
    expect(res["failed"] >= 1 and res["correct"] is False,
           f"token_ckpt with a flipped checkpoint byte: {res}")
    print(f"ok   token_ckpt corrupt checkpoint: {res['failed']} of "
          f"{res['attempted']} checks failed, no crash")


if __name__ == "__main__":
    main()
