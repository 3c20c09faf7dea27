#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <mega_load|mc_claims|token_ckpt>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
the benchmark binary and the rbb library into .bench_build/perfbench;
later runs only re-check the build.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json under --trace 0 and its per-layer metrics under
--trace 1.  The line before it stamps the hardware and provenance,
measured from outside the program.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_run"
BINARY = BUILD_DIR / "perfbench"
BINARY_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure.
    The compiler's temporary files stay inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout,
                              env={**os.environ, "TMPDIR": str(tmp)})
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the rbb sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from the root of a full checkout", code=2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                           str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"], 300):
            fail("cmake configure failed")
    if not run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                       "perfbench", "-j", "4"], 800):
        fail("build failed")


def read_first_line(path):
    try:
        return Path(path).read_text().strip().splitlines()[0]
    except (OSError, IndexError):
        return "unknown"


def cache_bytes(level):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if read_first_line(index / "level") != str(level):
            continue
        if read_first_line(index / "type") == "Instruction":
            continue
        size = read_first_line(index / "size")
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        if size[-1:] in units and size[:-1].isdigit():
            return int(size[:-1]) * units[size[-1]]
    return None


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return "unknown (not a git checkout)"
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


def provenance(binary_info):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ram = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram = int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    thp = read_first_line("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp[thp.index("[") + 1:thp.index("]")]
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2),
        "llc_bytes": cache_bytes(3),
        "ram_bytes": ram,
        "thp": thp,
        "git_rev": git_rev(),
        **binary_info,
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mega_load", "mc_claims", "token_ckpt"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (smoke_test.py)")
    parser.add_argument("--corrupt-ckpt", action="store_true",
                        help="flip a checkpoint byte before reading it back")
    args = parser.parse_args()

    build()
    WORK_DIR.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_ckpt:
        cmd.append("--corrupt-ckpt")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark binary exceeded {BINARY_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with status {proc.returncode}")
    report = json.loads(lines[-1])

    metrics = {}
    for spec in expected_metrics(args.trace):
        got = report["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"benchmark binary did not report {spec['name']} "
                 f"[{spec['unit']}]")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"{spec['name']} is not a finite number")
        metrics[spec["name"]] = got
    for failure in report["failures"]:
        print(f"perfbench: failed check: {failure}", file=sys.stderr)

    print(json.dumps({"provenance": provenance(report["info"])}))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
