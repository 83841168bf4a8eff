#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: baseline A, candidate B.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload x end-to-end metric, judged against the bound
``BENCHMARK.json`` fixes for the metric:

* ``same``        B is within the bound of A;
* ``better`` / ``worse``  B is outside it, and in both files another round
  lands within the bound of the reported value, so the estimate does not
  rest on one round;
* ``unresolved``  B is outside the bound but one of the two estimates is
  unconfirmed: the runs' own spread is wider than the bound.

Exits 1 if any row is ``worse``, 2 if the files cannot be compared
(different settings, a ``--quick`` run, no end-to-end pass).
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import FAILURE_RATE, load_benchmark_json

#: Deterministic at a fixed seed, and files with different seeds are
#: refused, so any worsening is real.  The bounds BENCHMARK.json gives
#: ``sim_partition_s`` and ``replication_factor`` only absorb the
#: graph-to-graph variation of runs made with *different* seeds.
EXACT = ("failure_rate", "sim_partition_s", "replication_factor")
ENVIRONMENT = ("nproc", "cpu_model", "python", "numpy")


def _refuse(message: str) -> None:
    print(f"compare.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def _confirmed(metric: dict, bound: float) -> bool:
    """Does a second round land within ``bound`` of the reported value?"""
    value = metric["value"]
    others = sorted(abs(r - value) for r in metric.get("rounds", []))[1:]
    return bool(others) and others[0] <= bound * abs(value)


def judge(name: str, a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""
    delta = b["value"] - a["value"]
    if better == "higher":
        delta = -delta
    # failure_rate is the one metric whose baseline is normally 0.
    change = delta / abs(a["value"]) if a["value"] else delta
    moved = "worse" if delta > 0 else "better"
    if name in EXACT:
        return (moved if delta else "same"), change
    if abs(change) <= bound:
        return "same", change
    if not (_confirmed(a, bound) and _confirmed(b, bound)):
        return "unresolved", change
    return moved, change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    files = []
    for path in (args.baseline, args.candidate):
        with open(path) as f:
            files.append(json.load(f))
    a, b = files
    for path, doc in zip((args.baseline, args.candidate), files):
        if doc["quick"]:
            _refuse(f"{path} is a --quick run; its numbers mean nothing")
        if doc["settings"]["trace"] == 1:
            _refuse(f"{path} has no end-to-end pass (--trace 1)")
    for key in ("graph", "hosts", "rounds", "seconds", "workloads"):
        if a["settings"][key] != b["settings"][key]:
            _refuse(f"settings differ: {key} = {a['settings'][key]!r} "
                    f"vs {b['settings'][key]!r}")
    for key in ENVIRONMENT:
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"warning: {key} differs: {a['fingerprint'][key]!r} vs "
                  f"{b['fingerprint'][key]!r}", file=sys.stderr)

    rules = {m["name"]: (m["better"], m["bound"])
             for m in load_benchmark_json()["end_to_end"] + [FAILURE_RATE]}
    tally = {"worse": 0, "same": 0, "better": 0, "unresolved": 0}
    print(f"{'workload':<12} {'metric':<20} {'A':>13} {'B':>13} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in a["settings"]["workloads"]:
        rows_a = a["workloads"][workload]["end_to_end"]
        rows_b = b["workloads"][workload]["end_to_end"]
        for name, (better, bound) in rules.items():
            verdict, change = judge(name, rows_a[name], rows_b[name], better, bound)
            tally[verdict] += 1
            shown_bound = 0.0 if name in EXACT else bound
            print(f"{workload:<12} {name:<20} {rows_a[name]['value']:>13.6g} "
                  f"{rows_b[name]['value']:>13.6g} {change * 100:>+7.2f}% "
                  f"{shown_bound * 100:>5.0f}%  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
