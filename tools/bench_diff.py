#!/usr/bin/env python3
"""Compare two BENCH_*.json perf baselines row by row.

Both inputs are rbb.result.v1 documents produced by

    rbb run sharded_scaling --format=json --out=BENCH_sharded.json

Rows are keyed by (n, variant, backend, threads) -- older baselines
without a variant column are read as variant="load" -- and the tool
prints the per-row ns/ball delta (absolute and percent), plus rows that
exist on only one side (scales differ, kernels added/removed).

By default the exit code is 0 (reporting only).  With --gate PCT the
tool becomes CI's perf gate: it exits 1 when any shared row's ns/ball
regressed by more than PCT percent against the old baseline.  Rows
present on only one side never fail the gate (adding a kernel or a
scale must not require a baseline refresh in the same commit).

Gated columns are ns_per_ball (the gate metric) and rounds_per_sec
(reported).  Which columns are *informational* -- context, never gated
-- is read from the table's own "informational" array, written by the
producer, not hardcoded here; a baseline that declares the gate metric
itself informational is refused.  Baselines from before the array
existed diff cleanly (empty set).

Parallelism honesty: every document carries a "parallelism" block
(hardware_concurrency, threads_requested, repeat).  Per row
the effective parallelism is min(threads column, hardware_concurrency)
for sharded rows and 1 for sequential rows.  A shared row whose
effective parallelism differs between OLD and NEW is REPORTED AND
EXCLUDED from the gate -- comparing a 8-way row against a 2-way rerun
is not a perf signal, it is a hardware change.  Rows on baselines that
predate the block gate as before (parallelism unknown).

Several NEW files may be given: rows merge by per-row *minimum*
ns/ball (the standard de-noising estimator for wall timings -- noise
on shared runners only ever adds time).  CI measures the pinned smoke
configuration three times and gates on the merged result, so a single
descheduled run cannot fail the job.  Rows present in only some of the
NEW files are reported (k/N presence), not silently merged as if every
file had measured them.

Usage:
    tools/bench_diff.py [--gate PCT] OLD.json NEW.json [NEW2.json ...]
"""

from __future__ import annotations

import json
import signal
import sys

# Behave under `| head`: die silently on a closed pipe.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

GATE_METRIC = "ns_per_ball"


def load_doc(path: str) -> dict:
    """One rbb.result.v1 document: keyed rows + parallelism context."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rbb.result.v1":
        sys.exit(f"{path}: not an rbb.result.v1 document "
                 f"(schema={doc.get('schema')!r})")
    tables = [t for t in doc.get("tables", [])
              if t.get("id") == "sharded_scaling"]
    if not tables:
        sys.exit(f"{path}: no sharded_scaling table")
    table = tables[0]
    columns = table["columns"]
    idx = {name: i for i, name in enumerate(columns)}
    informational = set(table.get("informational", []))
    if GATE_METRIC in informational:
        sys.exit(f"{path}: declares the gate metric {GATE_METRIC!r} "
                 f"informational; refusing to gate on it")
    hw = (doc.get("parallelism") or {}).get("hardware_concurrency")
    rows: dict[tuple, dict] = {}
    for row in table["rows"]:
        variant = row[idx["variant"]] if "variant" in idx else "load"
        backend = row[idx["backend"]]
        threads = row[idx["threads"]]
        key = (row[idx["n"]], variant, backend, threads)
        if backend == "sharded":
            # Effective parallelism this row actually ran with: the
            # worker count, capped by the machine (None = the document
            # predates the parallelism block, so we cannot know).
            eff = min(int(threads), int(hw)) if hw else None
        else:
            eff = 1
        rows[key] = {
            "ns_per_ball": float(row[idx["ns_per_ball"]]),
            "rounds_per_sec": float(row[idx["rounds_per_sec"]]),
            "eff_parallelism": eff,
        }
    return {"rows": rows, "informational": informational, "hw": hw}


def fmt_key(key: tuple) -> str:
    n, variant, backend, threads = key
    return f"n={n:<11} {variant:<8} {backend:<11} x{threads}"


def main() -> int:
    args = sys.argv[1:]
    gate_pct: float | None = None
    if "--gate" in args:
        at = args.index("--gate")
        try:
            gate_pct = float(args[at + 1])
        except (IndexError, ValueError):
            print("--gate needs a numeric percent threshold\n",
                  file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        args = args[:at] + args[at + 2:]
    if len(args) < 2 or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    old_path, new_paths = args[0], args[1:]
    old_doc = load_doc(old_path)
    old = old_doc["rows"]
    new: dict[tuple, dict] = {}
    presence: dict[tuple, int] = {}
    informational: set[str] = set(old_doc["informational"])
    for path in new_paths:
        doc = load_doc(path)
        informational |= doc["informational"]
        for key, row in doc["rows"].items():
            presence[key] = presence.get(key, 0) + 1
            if key in new:
                merged = new[key]
                merged["ns_per_ball"] = min(merged["ns_per_ball"],
                                            row["ns_per_ball"])
                merged["rounds_per_sec"] = max(merged["rounds_per_sec"],
                                               row["rounds_per_sec"])
                if merged["eff_parallelism"] != row["eff_parallelism"]:
                    # The NEW runs disagree about the hardware a row ran
                    # on; the merged row inherits the conflict and is
                    # excluded from the gate below.
                    merged["eff_parallelism"] = "mixed"
            else:
                new[key] = dict(row)
    new_path = new_paths[0] if len(new_paths) == 1 else \
        f"min of {len(new_paths)} runs"

    shared = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    partial = sorted(k for k, c in presence.items()
                     if c < len(new_paths))

    print(f"# bench diff: {old_path} -> {new_path}")
    print(f"# {len(shared)} shared rows, {len(only_old)} only-old, "
          f"{len(only_new)} only-new")
    if informational:
        print(f"# informational columns (declared by the baselines, "
              f"never gated): {', '.join(sorted(informational))}")
    regressions: list[tuple] = []
    mismatched: list[tuple] = []
    if shared:
        print(f"{'row':<42} {'old ns/ball':>12} {'new ns/ball':>12} "
              f"{'delta':>9} {'pct':>8}")
        for key in shared:
            o = old[key]["ns_per_ball"]
            n = new[key]["ns_per_ball"]
            o_eff = old[key]["eff_parallelism"]
            n_eff = new[key]["eff_parallelism"]
            # Refuse to gate across a hardware change: both sides know
            # their effective parallelism and the values differ.
            gateable = (o_eff is None or n_eff is None or o_eff == n_eff)
            delta = n - o
            pct = (delta / o * 100.0) if o else float("inf")
            if not gateable:
                marker = (f" <-- parallelism changed (old ran x{o_eff}, "
                          f"new x{n_eff}): not gated")
                mismatched.append((key, o_eff, n_eff))
            else:
                marker = " <-- slower" if pct > 10.0 else \
                         (" <-- faster" if pct < -10.0 else "")
            print(f"{fmt_key(key):<42} {o:>12.2f} {n:>12.2f} "
                  f"{delta:>+9.2f} {pct:>+7.1f}%{marker}")
            if gateable and gate_pct is not None and pct > gate_pct:
                regressions.append((key, pct))
    for key in only_old:
        print(f"only in {old_path}: {fmt_key(key)}")
    for key in only_new:
        print(f"only in {new_path}: {fmt_key(key)}")
    for key in partial:
        print(f"row present in only {presence[key]}/{len(new_paths)} "
              f"NEW file(s): {fmt_key(key)}")
    if mismatched:
        print(f"# {len(mismatched)} shared row(s) excluded from the gate: "
              f"recorded effective parallelism differs between baselines")
    if regressions:
        print(f"\nGATE FAILED: {len(regressions)} row(s) regressed more "
              f"than {gate_pct}% ns/ball:", file=sys.stderr)
        for key, pct in regressions:
            print(f"  {fmt_key(key)}  {pct:+.1f}%", file=sys.stderr)
        print("If the regression is intended (e.g. a deliberate trade-off), "
              "regenerate the committed baseline in this PR or apply the "
              "override label documented in .github/workflows/ci.yml.",
              file=sys.stderr)
        return 1
    if gate_pct is not None:
        print(f"# gate: no row regressed more than {gate_pct}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
