#!/usr/bin/env python
"""Benchmark smoke test: tiny graph, throughput floor + result digest.

Partitions a small deterministic graph and asserts

* for every policy in :data:`POLICIES` — one pure master rule (CVC)
  and the history-sensitive ones (FVC Fennel, FEC/SVC FennelEB, LEC
  LDG) — the partition digest matches the committed reference
  (``scripts/bench_smoke_reference.json``) — partitions are a pure
  function of (graph, policy, seed), so any drift is a real behaviour
  change, not noise;
* the serial run clears a *very* conservative wall-clock
  throughput floor on :data:`FLOOR_POLICY`, catching order-of-magnitude
  perf regressions without the variance problems of asserting real
  benchmark numbers in CI.

Regenerate the reference (only after an intended behaviour change)
with ``python scripts/bench_smoke.py --write-reference``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core import CuSP  # noqa: E402
from repro.graph import erdos_renyi  # noqa: E402

REFERENCE = Path(__file__).with_name("bench_smoke_reference.json")

NUM_NODES = 2_000
NUM_EDGES = 24_000
SEED = 5
#: Table II rows whose digests are pinned: CVC (ContiguousEB, pure),
#: FVC (Fennel), FEC and SVC (FennelEB, edge-cut and 2-D cut), LEC (LDG).
POLICIES = ("CVC", "FVC", "FEC", "SVC", "LEC")
#: The policy the throughput floor is measured on.
FLOOR_POLICY = "CVC"
NUM_HOSTS = 4
#: Synchronization rounds for the stateful policies (Table VI's second
#: point, the perf harness's setting): 50-vertex chunks, so each
#: ``assign_batch`` call sees edges between vertices of its own batch,
#: and the pooled runs stay at ~30 barriers.
SYNC_ROUNDS = 10
#: Floor in edges/second — two orders of magnitude below what a
#: single modern core measures, so only a gross regression trips it.
THROUGHPUT_FLOOR = 50_000.0


def partition_digest(dg) -> str:
    """SHA-256 over every array that defines the partitions."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dg.masters).tobytes())
    for part in dg.partitions:
        for arr in (part.global_ids, part.master_host,
                    part.local_graph.indptr, part.local_graph.indices):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _partition(graph, policy: str, **kwargs):
    with CuSP(NUM_HOSTS, policy, sync_rounds=SYNC_ROUNDS, **kwargs) as cusp:
        return cusp.partition(graph)


def run() -> dict[str, dict]:
    """``{policy: result}`` for every pinned policy, on one graph."""
    graph = erdos_renyi(NUM_NODES, NUM_EDGES, seed=SEED)
    results = {}
    for policy in POLICIES:
        t0 = time.perf_counter()
        dg = _partition(graph, policy)
        elapsed = time.perf_counter() - t0
        # The process executor must complete and reproduce the digest
        # (its wall-clock is not floored: fork/pickle overhead dominates
        # at this graph size and only the serial throughput guards
        # regressions).
        process_dg = _partition(graph, policy, executor="process")
        results[policy] = {
            "digest": partition_digest(dg),
            "process_digest": partition_digest(process_dg),
            "edges": graph.num_edges,
            "elapsed_s": elapsed,
            "edges_per_s": graph.num_edges / elapsed,
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the current digest as the committed reference",
    )
    args = parser.parse_args(argv)
    results = run()

    for policy, result in results.items():
        if result["digest"] != result["process_digest"]:
            print(
                f"FAIL: {policy}: process executor diverges from serial",
                file=sys.stderr,
            )
            return 1

    if args.write_reference:
        REFERENCE.write_text(json.dumps({
            "num_hosts": NUM_HOSTS,
            "sync_rounds": SYNC_ROUNDS,
            "graph": {"nodes": NUM_NODES, "edges": NUM_EDGES, "seed": SEED},
            "digests": {p: r["digest"] for p, r in results.items()},
        }, indent=2) + "\n")
        print(f"reference written: {len(results)} digest(s)")
        return 0

    if not REFERENCE.exists():
        print(f"FAIL: no committed reference at {REFERENCE}", file=sys.stderr)
        return 1
    expected = json.loads(REFERENCE.read_text())["digests"]
    for policy, result in results.items():
        if result["digest"] != expected.get(policy):
            print(
                f"FAIL: {policy}: partition digest drifted\n"
                f"  expected {expected.get(policy)}\n"
                f"  got      {result['digest']}\n"
                "(if the change is intended, rerun with --write-reference)",
                file=sys.stderr,
            )
            return 1
    floor = results[FLOOR_POLICY]
    if floor["edges_per_s"] < THROUGHPUT_FLOOR:
        print(
            f"FAIL: {FLOOR_POLICY} throughput {floor['edges_per_s']:.0f} "
            f"edges/s below the {THROUGHPUT_FLOOR:.0f} floor",
            file=sys.stderr,
        )
        return 1
    pinned = ", ".join(f"{p} {r['digest'][:8]}" for p, r in results.items())
    print(
        f"bench-smoke OK: {pinned}; {FLOOR_POLICY} "
        f"{floor['edges_per_s'] / 1e6:.2f} Medges/s "
        f"({floor['elapsed_s'] * 1e3:.0f} ms)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
