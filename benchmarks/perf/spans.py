"""Span recorder: timing wrappers installed around each layer's public names.

The program has no wall-clock instrumentation of its own (its
``wall-clock`` lint rule keeps clocks out of phase code), so the traced
pass measures it from outside: :func:`install` replaces public
functions and methods of each layer with wrappers that record a span
(name, start, end, parent) and :meth:`Recorder.uninstall` puts the
originals back.  Spans stay in memory until the pass is over.

Only the installing process records.  Pool workers forked while the
wrappers are installed inherit them but call straight through, so under
the process executor the trace shows the parent's side of every barrier
and nothing of what runs inside the workers (the kernel pass covers
those layers).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

#: ``SimulatedCluster.phase`` names -> metric keys.
PHASE_KEYS = {
    "Graph Reading": "reading",
    "Master Assignment": "masters",
    "Edge Assignment": "assignment",
    "Graph Allocation/Other": "allocation",
    "Graph Construction": "construction",
}

#: The span every traced ``CuSP.partition`` call runs under.
ROOT_SPAN = "framework.partition"


class Recorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, payload bytes]`` each.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if os.getpid() != self._pid:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int, nbytes: int = 0) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter()
        record[4] = nbytes
        self._stack.pop()

    def _wrap(self, name: str, fn, size=None):
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = self._open(name)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(args, result)
                return result
            finally:
                self._close(index, nbytes)

        return wrapper

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper named ``name``.

        ``size(args, result)`` optionally attaches a byte count to the
        span.  Class and static methods keep their binding.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__, size))
        else:
            wrapped = self._wrap(name, raw, size)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_overrides(self, base: type, attr: str, name: str) -> None:
        """Patch ``attr`` on ``base`` and on every subclass overriding it."""
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.patch(cls, attr, name)

    def patch_phase(self, cluster_cls) -> None:
        """Span each ``SimulatedCluster.phase`` block under its phase key."""
        original = vars(cluster_cls)["phase"]
        recorder = self

        @contextmanager
        def phase(self, name, host_map=None):
            with recorder.span("phase." + PHASE_KEYS[name]):
                with original(self, name, host_map=host_map) as stats:
                    yield stats

        self._undo.append((cluster_cls, "phase", original))
        cluster_cls.phase = phase

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reading the log
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, calls, self seconds, bytes.

        ``busy`` and ``calls`` count outermost spans only, so a function
        that re-enters itself under the same name (FennelEB delegating
        high-degree nodes to ContiguousEB's ``assign_batch``) is not
        counted twice.  ``self`` is duration minus the part covered by
        child spans, summed over every span of the name.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, nbytes) in enumerate(spans):
            agg = out.setdefault(
                name, {"busy": 0.0, "calls": 0, "self": 0.0, "bytes": 0}
            )
            agg["self"] += (end - start) - child_time[index]
            agg["bytes"] += nbytes
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                agg["busy"] += end - start
                agg["calls"] += 1
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Dump the log in the Chrome trace-event format (``ph: "X"``)."""
        if not self.spans:
            events = []
        else:
            origin = self.spans[0][1]
            events = [
                {
                    "name": name,
                    "ph": "X",
                    "pid": self._pid,
                    "tid": 0,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": index, "parent": parent, "bytes": nbytes},
                }
                for index, (name, start, end, parent, nbytes)
                in enumerate(self.spans)
            ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def install(recorder: Recorder) -> None:
    """Patch every layer boundary the per-layer metrics are defined on."""
    from repro.core import framework
    from repro.core.assignment_phase import HostGroups
    from repro.core.edge_rules import EdgeRule
    from repro.core.master_rules import MasterRule
    from repro.core.partition_io import PartitionCheckpoint
    from repro.core.state import PartitioningState
    from repro.graph.csr import CSRGraph
    from repro.runtime.cluster import SimulatedCluster
    from repro.runtime.colfab import BatchAccumulator, MessageBatch
    from repro.runtime.comm import Communicator
    from repro.runtime.executor import Executor, ProcessExecutor

    recorder.patch_phase(SimulatedCluster)
    recorder.patch(SimulatedCluster, "close", "executor.close")
    recorder.patch_overrides(Executor, "run", "executor.run")
    recorder.patch(ProcessExecutor, "publish", "executor.publish")
    recorder.patch(PartitionCheckpoint, "roundtrip", "partition_io.roundtrip")
    recorder.patch(
        framework, "assignment_from_owners", "assignment_phase.from_owners"
    )
    recorder.patch(HostGroups, "__init__", "assignment_phase.host_groups")
    recorder.patch(CSRGraph, "from_edges", "csr.from_edges")
    recorder.patch_overrides(EdgeRule, "owner_batch", "edge_rules.owner_batch")
    recorder.patch_overrides(
        MasterRule, "assign_batch", "master_rules.assign_batch"
    )
    recorder.patch_overrides(
        PartitioningState, "sync_round", "state.sync_round"
    )
    recorder.patch(BatchAccumulator, "flush_all", "colfab.flush_all")
    recorder.patch(
        MessageBatch, "to_bytes", "colfab.to_bytes",
        size=lambda args, result: args[0].nbytes,
    )
    recorder.patch(MessageBatch, "from_bytes", "colfab.from_bytes")
    recorder.patch(Communicator, "merge_ledger", "comm.merge_ledger")
    recorder.patch(Communicator, "recv_all_batch", "comm.recv_all_batch")


def layer_metrics(recorder: Recorder, ops: int) -> dict[str, float]:
    """Per-op means of the span-derived per-layer metrics."""
    totals = recorder.totals()
    zero = {"busy": 0.0, "calls": 0, "self": 0.0, "bytes": 0}

    def get(name: str, field: str) -> float:
        return totals.get(name, zero)[field] / ops

    out: dict[str, float] = {}
    for key in PHASE_KEYS.values():
        out[f"phase.{key}_s"] = get(f"phase.{key}", "busy")
    for name, with_calls in (
        ("assignment_phase.host_groups", True),
        ("assignment_phase.from_owners", False),
        ("csr.from_edges", True),
        ("edge_rules.owner_batch", True),
        ("master_rules.assign_batch", True),
        ("state.sync_round", True),
        ("executor.publish", True),
        ("colfab.flush_all", True),
        ("colfab.to_bytes", True),
        ("colfab.from_bytes", True),
        ("comm.merge_ledger", True),
        ("comm.recv_all_batch", False),
        ("partition_io.roundtrip", True),
    ):
        out[f"{name}_s"] = get(name, "busy")
        if with_calls:
            out[f"{name}_calls"] = get(name, "calls")
    out["colfab.to_bytes_mb"] = get("colfab.to_bytes", "bytes") / 1e6
    out["executor.run_s"] = get("executor.run", "busy")
    out["executor.run_self_s"] = get("executor.run", "self")
    out["executor.barriers"] = get("executor.run", "calls")
    out["executor.barrier_ms"] = (
        1e3 * out["executor.run_s"] / out["executor.barriers"]
        if out["executor.barriers"] else 0.0
    )
    out["executor.close_s"] = get("executor.close", "busy")
    out["framework.glue_s"] = get(ROOT_SPAN, "self")
    return out
