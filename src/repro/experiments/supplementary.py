"""Supplementary experiments beyond the paper's figures.

* ``run_quality_table`` — the structural metrics (replication factor,
  balance, communication partners) for every policy; the paper discusses
  these (§V-C) but tabulates only runtimes, so this fills in the
  underlying numbers.
* ``run_vertex_order`` — sensitivity of the contiguous-master policies to
  vertex id order: crawl ordering (locality) vs random relabeling.
  Contiguous policies implicitly rely on id locality, which this
  quantifies.
"""

from __future__ import annotations

from contextlib import ExitStack

from ..core import CuSP, make_policy
from ..graph.transforms import relabel_by_degree, shuffle_labels
from ..metrics import measure_quality
from .common import CUSP_POLICIES, ExperimentContext, ExperimentResult

__all__ = ["run_quality_table", "run_vertex_order"]


def run_quality_table(
    ctx: ExperimentContext | None = None,
    scale: str = "small",
    graph: str = "clueweb",
    hosts: int = 16,
    policies: list[str] | None = None,
) -> ExperimentResult:
    ctx = ctx or ExperimentContext(scale=scale)
    policies = policies or (["XtraPulp"] + CUSP_POLICIES + ["DBH", "PGC", "HDRF"])
    g = ctx.graph(graph)
    rows = []
    for policy in policies:
        dg = ctx.partition(graph, policy, hosts)
        q = measure_quality(dg, g)
        rows.append(
            {
                "policy": policy,
                "invariant": dg.invariant,
                "replication": q.replication_factor,
                "node balance": q.node_balance,
                "edge balance": q.edge_balance,
                "cut fraction": q.cut_fraction,
                "max partners": q.max_partners,
            }
        )
    return ExperimentResult(
        experiment="Supplementary A",
        title=f"Structural partition quality ({graph}, {hosts} hosts)",
        columns=["policy", "invariant", "replication", "node balance",
                 "edge balance", "cut fraction", "max partners"],
        rows=rows,
        notes=[
            "2d-cut policies bound communication partners by the grid "
            "row+column; the paper notes these metrics do not map 1:1 to "
            "runtime (§V-C), which Figures 5/6 measure directly.",
        ],
    )


def run_vertex_order(
    ctx: ExperimentContext | None = None,
    scale: str = "small",
    hosts: int = 16,
) -> ExperimentResult:
    """Needs an input whose id space *has* locality to lose: real crawls
    number pages in crawl order, which clusters neighborhoods.  The
    synthetic stand-ins permute ids, so this experiment uses a grid
    (row-major ids = maximal locality) as the locality-rich input."""
    from ..graph.generators import grid_graph

    ctx = ctx or ExperimentContext(scale=scale)
    side = {"tiny": 24, "small": 60, "bench": 120}.get(scale, 60)
    base = grid_graph(side, side).symmetrize()
    variants = {
        "row-major order (locality)": base,
        "degree order": relabel_by_degree(base),
        "random order": shuffle_labels(base, seed=99),
    }
    rows = []
    with ExitStack() as stack:
        # One partitioner per policy, reused across the vertex orders.
        cusps = {
            policy: stack.enter_context(CuSP(
                hosts, make_policy(policy, degree_threshold=ctx.degree_threshold),
                cost_model=ctx.cost_model,
            ))
            for policy in ("EEC", "CVC")
        }
        for label, g in variants.items():
            for policy, cusp in cusps.items():
                dg = cusp.partition(g)
                q = measure_quality(dg, g)
                rows.append(
                    {
                        "vertex order": label,
                        "policy": policy,
                        "replication": q.replication_factor,
                        "cut fraction": q.cut_fraction,
                        "partition ms": dg.breakdown.total * 1e3,
                    }
                )
    return ExperimentResult(
        experiment="Supplementary B",
        title="Vertex-order sensitivity of contiguous policies (grid)",
        columns=["vertex order", "policy", "replication", "cut fraction",
                 "partition ms"],
        rows=rows,
        notes=[
            "Contiguous master blocks inherit whatever locality the id "
            "space has; random relabeling removes it and replication "
            "rises toward the structure-oblivious ceiling.",
        ],
    )
