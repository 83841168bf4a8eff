"""End-to-end partition invariant checking.

This module is the one checker: it evaluates every invariant, collects
human-readable violations instead of stopping at the first, and returns a
:class:`ValidationReport` suitable for exit-code plumbing (the CLI and
the crash-recovery machinery).
:meth:`~repro.core.partition.DistributedGraph.validate` is the raising
form tests use: :meth:`ValidationReport.raise_if_failed` of the report.

Checked invariants (paper §II's definition of a partition):

* every edge is assigned to exactly one partition (count, and — when the
  original graph is supplied — exact edge-multiset equality);
* every vertex has exactly one master proxy, on the partition the global
  master map names;
* every mirror's ``master_host`` agrees with the global master map, and
  no mirror is mastered locally;
* every local graph (and CSC view) is a well-formed CSR structure whose
  endpoints stay inside the partition's proxy table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from .partition import DistributedGraph

__all__ = ["ValidationReport", "check_csr", "check_partition"]


@dataclass
class ValidationReport:
    """Outcome of a partition validation run."""

    errors: list[str] = field(default_factory=list)
    #: Number of invariants evaluated (for "N invariants checked" output).
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise AssertionError("; ".join(self.errors))

    def summary(self) -> str:
        if self.ok:
            return f"OK ({self.checks_run} invariants checked)"
        return (
            f"INVALID ({len(self.errors)} violation(s) in "
            f"{self.checks_run} invariants): " + "; ".join(self.errors)
        )


def check_csr(graph: CSRGraph, label: str = "graph") -> list[str]:
    """Violations of CSR well-formedness for ``graph`` (empty = valid)."""
    errors: list[str] = []
    indptr = graph.indptr
    indices = graph.indices
    if indptr.size != graph.num_nodes + 1:
        errors.append(
            f"{label}: indptr has {indptr.size} entries for "
            f"{graph.num_nodes} nodes (want num_nodes + 1)"
        )
        return errors  # the remaining checks would mis-index
    if indptr.size and indptr[0] != 0:
        errors.append(f"{label}: indptr[0] == {indptr[0]}, want 0")
    if np.any(np.diff(indptr) < 0):
        errors.append(f"{label}: indptr is not non-decreasing")
    if indptr.size and indptr[-1] != indices.size:
        errors.append(
            f"{label}: indptr[-1] == {indptr[-1]} but {indices.size} edges stored"
        )
    if indices.size:
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= graph.num_nodes:
            errors.append(
                f"{label}: edge endpoints span [{lo}, {hi}], outside "
                f"[0, {graph.num_nodes})"
            )
    if graph.is_weighted and graph.edge_data.size != indices.size:
        errors.append(
            f"{label}: {graph.edge_data.size} weights for {indices.size} edges"
        )
    return errors


def check_partition(
    dg: DistributedGraph, original: CSRGraph | None = None
) -> ValidationReport:
    """Evaluate every partition invariant of ``dg``; never raises."""
    report = ValidationReport()
    errors = report.errors
    n = dg.num_global_nodes
    k = dg.num_partitions

    # Global master map shape and range.
    report.checks_run += 2
    if dg.masters.shape != (n,):
        errors.append(
            f"master map has shape {dg.masters.shape}, want ({n},)"
        )
        return report  # everything below indexes through it
    if n and (dg.masters.min() < 0 or dg.masters.max() >= k):
        errors.append(
            f"master map names partitions outside [0, {k})"
        )

    master_seen = np.zeros(n, dtype=np.int64)
    for p in dg.partitions:
        who = f"partition {p.host}"
        gids = p.global_ids

        # Proxy table sanity.
        report.checks_run += 3
        if gids.size and (gids.min() < 0 or gids.max() >= n):
            errors.append(f"{who}: proxy global ids outside [0, {n})")
            continue
        if gids.size != np.unique(gids).size:
            errors.append(f"{who}: duplicate proxies")
        if not (0 <= p.num_masters <= gids.size):
            errors.append(
                f"{who}: num_masters {p.num_masters} outside [0, {gids.size}]"
            )
            continue

        # Exactly one master per vertex, where the master map says.
        report.checks_run += 2
        m = p.master_global_ids
        master_seen[m] += 1
        if not np.all(dg.masters[m] == p.host):
            errors.append(f"{who}: holds masters the master map places elsewhere")
        mirrors = p.mirror_global_ids
        if mirrors.size and np.any(dg.masters[mirrors] == p.host):
            errors.append(f"{who}: mirror proxies mastered locally")

        # Mirror/master host consistency.
        report.checks_run += 1
        if not np.array_equal(p.master_host, dg.masters[gids]):
            errors.append(f"{who}: master_host disagrees with the master map")

        # Local graphs are well-formed CSR with in-range endpoints.
        report.checks_run += 2
        errors.extend(check_csr(p.local_graph, f"{who} local graph"))
        if p.local_csc is not None:
            errors.extend(check_csr(p.local_csc, f"{who} local csc"))
            if p.local_csc.num_edges != p.local_graph.num_edges:
                errors.append(f"{who}: csc edge count differs from csr")
        if p.local_graph.num_nodes != gids.size:
            errors.append(
                f"{who}: local graph has {p.local_graph.num_nodes} nodes "
                f"for {gids.size} proxies"
            )

        # Lookup consistency (when built).
        if p._lookup is not None:
            report.checks_run += 1
            if (
                p._lookup.size != n
                or not np.array_equal(
                    p._lookup[gids], np.arange(gids.size, dtype=np.int64)
                )
                or int((p._lookup >= 0).sum()) != gids.size
            ):
                errors.append(f"{who}: global->local lookup is inconsistent")

    report.checks_run += 1
    if n and not np.all(master_seen == 1):
        missing = int((master_seen == 0).sum())
        extra = int((master_seen > 1).sum())
        errors.append(
            f"master coverage broken: {missing} vertices without a master, "
            f"{extra} with more than one"
        )

    # Every edge assigned exactly once (count; multiset with original).
    report.checks_run += 1
    total_edges = int(sum(p.num_edges for p in dg.partitions))
    if total_edges != dg.num_global_edges:
        errors.append(
            f"edge count mismatch: partitions hold {total_edges}, "
            f"graph has {dg.num_global_edges}"
        )
    if original is not None:
        report.checks_run += 2
        if original.num_nodes != n or original.num_edges != dg.num_global_edges:
            errors.append(
                f"reference graph is |V|={original.num_nodes} "
                f"|E|={original.num_edges}, partition metadata says "
                f"|V|={n} |E|={dg.num_global_edges}"
            )
        elif not errors:
            mine = dg._global_edge_matrix()
            theirs = np.stack(original.edges(), axis=1)
            mine = mine[np.lexsort((mine[:, 1], mine[:, 0]))]
            theirs = theirs[np.lexsort((theirs[:, 1], theirs[:, 0]))]
            if not np.array_equal(mine, theirs):
                errors.append("edge multiset differs from the original graph")
    return report
