"""End-to-end reference cases: partitions against the paper oracle,
accounting against ``tests/data/accounting_golden.json``.

The golden file holds, per case, every phase row of the run's
``TimeBreakdown`` (``PhaseReport.to_dict()``: the eleven fields
``assert_same_breakdown`` compares) and the fault-report counts.  It was
recorded from ``fabric="scalar"`` in the commit before that fabric was
deleted, so it carries the scalar path's byte, message, retry and time
accounting forward as data; ``transient-plan/SVC`` was added later, in
the commit before the masters phase's shipping moved into the scoring
task, to pin that phase's fault draws across the move.  The file
changes only with an intended change to the cost accounting:
``python -m tests.golden --write`` re-records it.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.core import CuSP, policy_names
from repro.graph import CSRGraph, erdos_renyi
from repro.runtime.faults import FaultPlan, HostCrash

from . import oracle

GOLDEN = Path(__file__).parent / "data" / "accounting_golden.json"
NUM_HOSTS = 4


def _weighted_graph(num_nodes=160, num_edges=1600, seed=12):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    w = rng.integers(1, 1000, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes, edge_data=w)


GRAPH = erdos_renyi(220, 2400, seed=11)
WEIGHTED = _weighted_graph()
CRASH_PLAN = FaultPlan(
    seed=2, send_failure_rate=0.05, drop_rate=0.03, duplicate_rate=0.03,
    crashes=(HostCrash(host=1, phase=2, op_count=5),
             HostCrash(host=2, phase=4)),
)
CORRUPT_PLAN = FaultPlan(seed=21, corrupt_rate=0.3)
#: Message faults only, no crash: on SVC nearly every draw lands on the
#: masters rounds' accounting-only sends.
TRANSIENT_PLAN = FaultPlan(
    seed=5, send_failure_rate=0.05, drop_rate=0.05, duplicate_rate=0.03,
    corrupt_rate=0.05,
)

#: case name -> (graph, policy, output, fault plan)
CASES = {f"serial/{p}": (GRAPH, p, "csr", None) for p in policy_names()}
CASES["weighted-csc/HVC"] = (WEIGHTED, "HVC", "csc", None)
CASES["crash-plan/CVC"] = (GRAPH, "CVC", "csr", CRASH_PLAN)
CASES["corrupt-plan/CVC"] = (erdos_renyi(300, 2400, seed=11), "CVC", "csr",
                             CORRUPT_PLAN)
CASES["transient-plan/SVC"] = (GRAPH, "SVC", "csr", TRANSIENT_PLAN)


def run_case(name, **cusp_kwargs):
    """Partition one case; ``cusp_kwargs`` vary how (executor, sanitizer)."""
    graph, policy, output, plan = CASES[name]
    cusp = CuSP(NUM_HOSTS, policy, fault_plan=plan, **cusp_kwargs)
    return cusp, cusp.partition(graph, output=output)


def accounting(cusp, dg):
    """What the golden file pins for one run."""
    report = cusp.last_fault_report
    return {
        "phases": [phase.to_dict() for phase in dg.breakdown.phases],
        "faults": None if report is None else report.counts(),
    }


def assert_matches_oracle(dg, graph, policy, k, **oracle_kwargs):
    """``dg`` is, list for list, what the paper oracle builds."""
    oracle_kwargs.setdefault(
        "frozen_chunk", getattr(policy.edge_rule, "chunk_size", 1)
    )
    want = oracle.partition(graph, policy, k, **oracle_kwargs)
    got = oracle.as_lists(dg)
    assert got["masters"] == want["masters"]
    assert got["partitions"] == want["partitions"]
    return want


def check_case(name, **cusp_kwargs):
    """Run a case and hold it to both references."""
    cusp, dg = run_case(name, **cusp_kwargs)
    graph, _, output, _ = CASES[name]
    assert_matches_oracle(
        dg, graph, cusp.policy, NUM_HOSTS,
        sync_rounds=cusp.sync_rounds, output=output,
    )
    assert accounting(cusp, dg) == json.loads(GOLDEN.read_text())[name]
    return cusp, dg


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.golden --write")
    GOLDEN.write_text(json.dumps(
        {name: accounting(*run_case(name)) for name in CASES}, indent=1
    ) + "\n")
    print(f"recorded {len(CASES)} case(s) in {GOLDEN}")
