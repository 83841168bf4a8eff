"""Pluggable per-host execution engine for the five CuSP phases.

Phase bodies used to drive hosts with inline ``for h in range(num_hosts)``
loops over shared accounting state, which welds the streaming algorithm
to single-threaded execution.  This module separates *what a host
computes* from *how the hosts are driven*:

* :class:`HostTask` — one host's closure over a phase's per-host work,
  expressed against a :class:`HostView` (send / recv / disk / compute
  charges);
* :class:`Executor` — the driving strategy.  :class:`SerialExecutor`
  runs tasks host-by-host against the shared ledgers (the deterministic
  reference, exactly the old inline-loop semantics).
  :class:`ParallelExecutor` runs them on a thread pool, each host
  recording onto a *private* :class:`~repro.runtime.comm.CommLedger`
  (plus private disk/compute accumulators and a redirected fault-event
  sink) that is merged back in **host order** at the barrier.
  :class:`ProcessExecutor` runs them on a resident pool of forked
  worker processes — the GIL-free engine: each barrier ships a dispatch
  spec (task refs, payloads, queue snapshots, live fault state) to the
  workers, which record the same private ledger and ship a picklable
  delta (accounting vectors, queued payloads on the
  :mod:`~repro.runtime.colfab` wire format, fault-channel RNG state,
  isolation evidence) back over a pipe for the identical host-order
  merge.

The task-payload seam: because a worker's writes die with the worker,
task bodies must not mutate shared structures.  A :class:`HostTask` may
therefore declare a picklable per-host ``payload`` (passed to ``fn`` as
a second argument) and an ``apply`` callback that the executor runs *in
the parent, at the barrier, in host order* with the body's result —
that is where shared-state writes go.  The serial path runs ``apply``
immediately after each body, which is the same order (phases submit
tasks in host order), so the seam changes nothing observably.  The
process pool resolves bodies by name, so there a body must be a
module-level function with every input in ``payload``; anything else
raises :class:`UnshippableTaskError` before dispatch.

Determinism argument (why parallel is bit-identical to serial):

1. *Accounting*: merge adds each host's private vectors into its own row
   of the shared matrices — addition order across rows is irrelevant,
   and within a row the ledger preserved the host's own send order.
2. *Message queues*: merging in host order appends each destination's
   payloads in exactly the (src-major) order a serial sweep would have
   produced, so every receiver drains an identical queue.
3. *Faults*: fault draws come from per-host generators seeded by
   ``(plan.seed, phase attempt, host)`` and tick on the host's own
   logical-op counter (:mod:`repro.runtime.faults`), so the decision
   sequence is independent of thread interleaving.  Fault events are
   buffered per ledger and concatenated in host order.
4. *Failures*: if hosts raise, the executor keeps the outcome of the
   first raising host in host order — ledgers of earlier hosts merge
   fully, the raising host's partial ledger merges as-is (serial charges
   everything up to the raise), later hosts' ledgers are discarded along
   with any crash they fired (serial would never have run them) — and
   re-raises.  Phase bodies are replay-safe (fresh state per attempt),
   so the discarded extra work of concurrent hosts is unobservable.

Work whose *algorithm* is cross-host sequential — a stateful edge rule
where host ``h+1`` must score against the state host ``h`` just updated —
goes through :meth:`Executor.chain`, which every executor runs
sequentially against the shared ledgers: bit-identity forbids
parallelism there, and pretending otherwise would change the partition.

Collectives (``allreduce_*``/``allgather``/``barrier``) are phase-global
and must be issued between task submissions, never inside a mapped task.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..analysis import isolation
from . import colfab
from .colfab import BatchAccumulator, ColumnSchema, MessageBatch, ReceivedBatch

if TYPE_CHECKING:
    from .stats import PhaseStats

__all__ = [
    "HostTask",
    "HostView",
    "DirectHostView",
    "LedgerHostView",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProcessExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
    "UnshippableTaskError",
]

EXECUTOR_NAMES = (
    "serial", "parallel", "parallel-checked", "process", "process-checked",
)

#: Sentinel distinguishing "no declared payload" from ``payload=None``.
_NO_PAYLOAD = object()

#: Columns at or above this size ride POSIX shared memory instead of the
#: worker's result pipe (see :meth:`MessageBatch.to_bytes`).
_SHM_THRESHOLD = 64 * 1024

_CAN_FORK = hasattr(os, "fork")

#: True inside a resident pool worker (set by ``_pool_worker_main``).
#: Phase code keys worker-local recompute caches off this flag so they
#: never grow in the parent.
_IN_POOL_WORKER = False


class UnshippableTaskError(TypeError):
    """A barrier the process pool cannot ship to its resident workers:
    a body that is not a module-level function (workers resolve bodies
    by name) or a dispatch spec — a ``payload`` — that does not pickle.
    Raised in the parent before anything is dispatched."""


@dataclass(frozen=True)
class HostTask:
    """One host's unit of phase work: a closure plus the host it charges.

    ``fn`` receives a :class:`HostView` (plus ``payload``, when one is
    declared) and performs the host's compute, declaring its
    communication and compute/disk charges through the view.  It must
    touch shared structures only through the view (or through per-host
    slices no other task writes).

    ``payload`` is the task's declared input: a picklable value handed
    to ``fn`` as a second argument, which is what lets a worker process
    run the body against its own copy of the world.  ``apply`` is the
    declared output seam: the executor calls it in the parent, at the
    barrier, in host order, with the body's result, and its return
    value becomes the task's result — all shared-state writes belong
    there, never in ``fn``.
    """

    host: int
    fn: Callable[..., Any]
    label: str = ""
    payload: Any = _NO_PAYLOAD
    apply: Callable[[Any], Any] | None = None


class HostView:
    """What one host's task sees of the cluster (interface).

    Concrete views route every charge either straight to the shared
    phase ledgers (:class:`DirectHostView`) or to private per-host
    ledgers merged at the barrier (:class:`LedgerHostView`).  Phase code
    is written against this interface only.
    """

    host: int
    _accumulators: "list[BatchAccumulator] | None"

    def send(self, dst: int, payload: Any, tag: str = "default",
             logical_messages: int = 1, nbytes: int | None = None,
             coalesce: bool = False) -> None:
        raise NotImplementedError

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        raise NotImplementedError

    def send_batch(self, dst: int, batch: MessageBatch,
                   tag: str = "default", logical_messages: int = 1,
                   nbytes: int | None = None,
                   coalesce: bool = False) -> None:
        """One columnar block = one transport send (same cost model)."""
        if not isinstance(batch, MessageBatch):
            raise TypeError(
                f"send_batch wants a MessageBatch, got {type(batch).__name__}"
            )
        self.send(
            dst, batch, tag=tag, logical_messages=logical_messages,
            nbytes=nbytes, coalesce=coalesce,
        )

    def recv_all_batch(self, tag: str, schema: ColumnSchema) -> ReceivedBatch:
        raise NotImplementedError

    def accumulator(self) -> BatchAccumulator:
        """A batch accumulator owned by this host's task.

        Channels left staged when the task body returns are flushed by
        the executor at the phase barrier, in append order.
        """
        acc = BatchAccumulator(self, host=self.host)
        if self._accumulators is None:
            self._accumulators = []
        self._accumulators.append(acc)
        return acc

    def flush_accumulators(self) -> None:
        """Flush every accumulator handed out by :meth:`accumulator`."""
        if self._accumulators:
            for acc in self._accumulators:
                acc.flush_all()

    def add_disk(self, nbytes: float) -> None:
        raise NotImplementedError

    def add_compute(self, units: float) -> None:
        raise NotImplementedError


class DirectHostView(HostView):
    """Charges land immediately on the shared ``PhaseStats``/``Communicator``."""

    __slots__ = ("_stats", "host", "_accumulators")

    def __init__(self, stats: PhaseStats, host: int):
        self._stats = stats
        self.host = int(host)
        self._accumulators = None

    def send(self, dst: int, payload: Any, tag: str = "default",
             logical_messages: int = 1, nbytes: int | None = None,
             coalesce: bool = False) -> None:
        self._stats.comm.send(
            self.host, dst, payload, tag=tag,
            logical_messages=logical_messages, nbytes=nbytes,
            coalesce=coalesce,
        )

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        return self._stats.comm.recv_all(self.host, tag)

    def recv_all_batch(self, tag: str, schema: ColumnSchema) -> ReceivedBatch:
        return self._stats.comm.recv_all_batch(self.host, tag, schema)

    def add_disk(self, nbytes: float) -> None:
        self._stats.add_disk(self.host, nbytes)

    def add_compute(self, units: float) -> None:
        self._stats.add_compute(self.host, units)


class LedgerHostView(HostView):
    """Charges accumulate privately; :meth:`merge` folds them in.

    Creating the view redirects the host's fault channel to the private
    ledger so events drawn by a concurrently-running host can be merged
    (or discarded) deterministically.  Receiving is read-only on the
    host's own queues — safe because queues are only ever appended to at
    merge barriers, and each host drains only its own.
    """

    __slots__ = ("_stats", "_channel", "host", "ledger",
                 "disk_bytes", "compute_units", "_accumulators")

    def __init__(self, stats: PhaseStats, host: int):
        self._stats = stats
        self.host = int(host)
        self.ledger = stats.comm.ledger(host)
        self.disk_bytes = 0.0
        self.compute_units = 0.0
        self._accumulators = None
        injector = stats.comm.injector
        self._channel = None
        if injector is not None:
            self._channel = injector.channel(host)
            self._channel.events_out = self.ledger.fault_events

    def send(self, dst: int, payload: Any, tag: str = "default",
             logical_messages: int = 1, nbytes: int | None = None,
             coalesce: bool = False) -> None:
        self.ledger.send(
            dst, payload, tag=tag, logical_messages=logical_messages,
            nbytes=nbytes, coalesce=coalesce,
        )

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        return self._stats.comm.recv_all(self.host, tag)

    def recv_all_batch(self, tag: str, schema: ColumnSchema) -> ReceivedBatch:
        return self._stats.comm.recv_all_batch(self.host, tag, schema)

    def add_disk(self, nbytes: float) -> None:
        if isolation._depth:
            isolation.guard_owned(self.host, "HostView.add_disk")
        if self._channel is not None:
            self._channel.tick()
        self.disk_bytes += nbytes

    def add_compute(self, units: float) -> None:
        if isolation._depth:
            isolation.guard_owned(self.host, "HostView.add_compute")
        if self._channel is not None:
            self._channel.tick()
        self.compute_units += units

    def merge(self) -> None:
        """Fold this host's private charges into the shared state."""
        stats = self._stats
        stats.comm.merge_ledger(self.ledger)
        stats.disk_bytes[self.host] += self.disk_bytes
        stats.compute_units[self.host] += self.compute_units
        self.disk_bytes = 0.0
        self.compute_units = 0.0
        injector = stats.comm.injector
        if injector is not None and self._channel is not None:
            injector.events.extend(self.ledger.fault_events)
            self.ledger.fault_events = []
            injector.commit(self._channel)
            self._channel.events_out = injector.events

    def release(self) -> None:
        """Discard this host's private charges (work serial never ran)."""
        injector = self._stats.comm.injector
        if injector is not None and self._channel is not None:
            self._channel.fired.clear()
            self._channel.events_out = injector.events


class Executor:
    """Strategy for driving a phase's per-host tasks."""

    name = "abstract"

    def publish(self, name: str, obj: Any) -> Any:
        """Register an immutable input under ``name`` for zero-copy reuse.

        The pooled process executor exports the object's large arrays
        into named shared-memory segments that its resident workers map
        as zero-copy NumPy views, so task payloads referencing the
        object never re-pickle the data across a pipe.  Every other
        executor shares the parent's address space already, so the
        default is the identity.  The published object must not be
        mutated afterwards (phases publish *after* checkpoint
        roundtrips, which is also when the object becomes immutable).
        """
        return obj

    def close(self) -> None:
        """Release executor-owned resources (pools, segments); idempotent."""

    def run(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        """Run independent per-host tasks; return results in task order.

        A barrier: every task has completed (and, for the parallel
        executor, every surviving ledger has merged) before this returns.
        Raises the first raising host's exception, in host order.
        """
        raise NotImplementedError

    def chain(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        """Run cross-host-*dependent* tasks sequentially in task order.

        Used when host h+1's algorithm reads state host h wrote (e.g.
        stateful streaming edge rules): identical under every executor
        by construction.
        """
        return [_run_direct(stats, task) for task in tasks]


def _invoke(task: HostTask, view: HostView) -> Any:
    """Call a task body, passing its declared payload when it has one."""
    if task.payload is _NO_PAYLOAD:
        return task.fn(view)
    return task.fn(view, task.payload)


def _run_direct(stats: PhaseStats, task: HostTask) -> Any:
    """Run one task on the shared ledgers, flushing staged batches at
    the end of the body (the serial phase barrier), then applying its
    declared output."""
    view = DirectHostView(stats, task.host)
    result = _invoke(task, view)
    view.flush_accumulators()
    if task.apply is not None:
        result = task.apply(result)
    return result


class SerialExecutor(Executor):
    """Deterministic reference: host-by-host over the shared ledgers."""

    name = "serial"

    def run(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        return [_run_direct(stats, task) for task in tasks]


class ParallelExecutor(Executor):
    """Thread pool over private per-host ledgers, merged in host order.

    NumPy kernels release the GIL, so per-host work genuinely overlaps.
    The pool is created lazily and reused across phases.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        check_isolation: bool = False,
        monitor: "isolation.IsolationMonitor | None" = None,
    ):
        """``check_isolation=True`` attaches a fresh
        :class:`~repro.analysis.isolation.IsolationMonitor` (or pass
        your own via ``monitor=``): every mapped task then runs under a
        thread-local ownership context, any cross-host access raises
        :class:`~repro.analysis.isolation.IsolationViolation`, and the
        monitor logs each sanctioned (host, phase, op, attribute)
        access.  Off by default — the guards cost a few percent on
        charge-heavy phases."""
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_width = 0
        if monitor is None and check_isolation:
            monitor = isolation.IsolationMonitor()
        self.monitor = monitor

    def _ensure_pool(self, width: int) -> ThreadPoolExecutor:
        workers = self._max_workers
        if workers is None:
            workers = max(2, min(width, os.cpu_count() or 1))
        if self._pool is None or self._pool_width < workers:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-host"
            )
            self._pool_width = workers
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_width = 0

    def run(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        hosts = [t.host for t in tasks]
        if len(set(hosts)) != len(hosts):
            raise ValueError("one task per host required in run()")
        if len(tasks) == 1:
            # No concurrency to gain; keep the direct (zero-copy) path.
            return [_run_direct(stats, tasks[0])]
        views = [LedgerHostView(stats, t.host) for t in tasks]
        pool = self._ensure_pool(len(tasks))
        phase_name = getattr(stats, "name", "")
        futures = [
            pool.submit(self._guarded, t, v, self.monitor, phase_name)
            for t, v in zip(tasks, views)
        ]
        outcomes = [f.result() for f in futures]
        # Barrier: merge in host order; keep the first failure in host
        # order and discard everything a serial sweep would not have run.
        # Applied outputs run right after each host's merge, so their
        # shared-state writes land in the same order serial produced.
        order = sorted(range(len(tasks)), key=lambda i: tasks[i].host)
        results: list[Any] = [None] * len(tasks)
        failed_at = None
        for pos, i in enumerate(order):
            result, exc = outcomes[i]
            views[i].merge()
            if exc is not None:
                failed_at = pos
                break
            if tasks[i].apply is not None:
                result = tasks[i].apply(result)
            results[i] = result
        if failed_at is not None:
            for i in order[failed_at + 1:]:
                views[i].release()
            raise outcomes[order[failed_at]][1]
        return results

    @staticmethod
    def _guarded(
        task: HostTask,
        view: HostView,
        monitor: isolation.IsolationMonitor | None,
        phase_name: str,
    ) -> tuple[Any, Exception | None]:
        try:
            if monitor is not None:
                with monitor.task(view.host, phase_name, task.label):
                    result = _invoke(task, view)
                    view.flush_accumulators()
                    return result, None
            result = _invoke(task, view)
            view.flush_accumulators()
            return result, None
        except Exception as exc:  # noqa: BLE001 — re-raised at the barrier
            return None, exc


class _ShippedHostView(LedgerHostView):
    """The ledger view a pool worker runs a task against.

    Identical to :class:`LedgerHostView` except every queue drain is
    logged: the worker drains the queue snapshot shipped in its
    dispatch spec, so the parent must re-play the same drains against
    the real communicator at the barrier
    (:meth:`Communicator.replay_recv`).
    """

    __slots__ = ("recv_log",)

    def __init__(self, stats: PhaseStats, host: int):
        super().__init__(stats, host)
        #: ``(tag, count)`` per non-empty drain, in drain order.
        self.recv_log: list[tuple[str, int]] = []

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        out = self._stats.comm.recv_all(self.host, tag)
        if out:
            # Only non-empty drains are logged, matching when the
            # communicator notifies its observer.
            self.recv_log.append((tag, len(out)))
        return out

    def recv_all_batch(self, tag: str, schema: ColumnSchema) -> ReceivedBatch:
        return ReceivedBatch(schema, self.recv_all(tag))


def _split_chunks(n: int, k: int) -> list[list[int]]:
    """``n`` task indices split into ``min(k, n)`` contiguous chunks."""
    k = max(1, min(k, n))
    base, extra = divmod(n, k)
    chunks, start = [], 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def _encode_queued_payload(payload: Any, borrow: bool = False) -> tuple[str, Any]:
    """Wire-encode one queued payload for an executor pipe.

    Large columnar batches go through the shared-memory wire format so
    their columns never cross the pipe; everything else rides pickle
    (:class:`MessageBatch` itself pickles via the inline wire format).
    Both directions are intra-box, so blobs are marked trusted (the
    decoder skips the CRC re-verification pass).

    ``borrow=True`` is the parent -> worker direction (queue-snapshot
    shipping): the parent keeps segment ownership, already-mapped
    segments of previously decoded batches are re-shipped by name with
    zero bytes copied, and a worker can die — or simply never drain the
    tag — without leaking anything.
    """
    if isinstance(payload, MessageBatch) and payload.nbytes >= _SHM_THRESHOLD:
        return (
            "wire",
            payload.to_bytes(
                shm_threshold=_SHM_THRESHOLD, borrow=borrow, trusted=True
            ),
        )
    return ("obj", payload)


def _decode_queued_payload(enc: tuple[str, Any]) -> Any:
    kind, data = enc
    if kind == "wire":
        # Zero-copy: shared columns stay mapped in place.  Owned
        # segments (worker -> parent deltas) are unlinked by the
        # decoded batch itself — explicitly via ``release_shared`` on
        # reclaim paths, or by its finalizer when a queue entry is
        # drained/discarded — so a dropped delta can never leak one.
        # Borrowed segments (parent -> worker snapshots) were divorced
        # from their wrappers during decode and are never this side's
        # to unlink.
        return MessageBatch.from_bytes(data)
    return data


def _run_shipped_task(
    stats: PhaseStats,
    task: HostTask,
    monitor: isolation.IsolationMonitor | None,
    phase_name: str,
) -> dict[str, Any]:
    """Worker-side: run one task, return its serializable delta.

    The delta is everything the parent needs to make its shared state
    bit-identical to a serial run of the task: the private ledger's
    accounting vectors and queued payloads, fault events and the
    channel's advanced RNG/op state, disk/compute charges, the drain
    log, and the isolation monitor's evidence.  A result that does not
    pickle is diagnosed where the delta is serialized
    (:func:`_dump_delta`).
    """
    comm = stats.comm
    injector = comm.injector
    base_acc = len(monitor.accesses) if monitor is not None else 0
    base_num = monitor.num_accesses if monitor is not None else 0
    base_vio = len(monitor.violations) if monitor is not None else 0
    view = _ShippedHostView(stats, task.host)
    result: Any = None
    exc: Exception | None = None
    try:
        if monitor is not None:
            with monitor.task(view.host, phase_name, task.label):
                result = _invoke(task, view)
                view.flush_accumulators()
        else:
            result = _invoke(task, view)
            view.flush_accumulators()
    except Exception as e:  # noqa: BLE001 — re-raised at the barrier
        result, exc = None, e
    ledger = view.ledger
    channel_state = None
    if injector is not None and view._channel is not None:
        ch = view._channel
        channel_state = {
            "ops": ch.ops,
            "rng": ch._rng.bit_generator.state,
            "fired": list(ch.fired),
        }
    if exc is not None:
        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — substitute a shippable summary
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    evidence = None
    if monitor is not None:
        evidence = {
            "accesses": monitor.accesses[base_acc:],
            "num_accesses": monitor.num_accesses - base_num,
            "violations": monitor.violations[base_vio:],
        }
    return {
        "host": task.host,
        "result": result,
        "exc": exc,
        "vectors": {
            "sent_bytes": ledger.sent_bytes,
            "sent_messages": ledger.sent_messages,
            "retry_bytes": ledger.retry_bytes,
            "retry_messages": ledger.retry_messages,
            "stream_bytes": ledger.stream_bytes,
            "stream_logical": ledger.stream_logical,
        },
        "backoff_units": ledger.backoff_units,
        "queued": [
            (dst, tag, _encode_queued_payload(p))
            for dst, tag, p in ledger.queued
        ],
        "fault_events": ledger.fault_events,
        "channel": channel_state,
        "disk_bytes": view.disk_bytes,
        "compute_units": view.compute_units,
        "recv_log": view.recv_log,
        "monitor": evidence,
    }


# ----------------------------------------------------------------------
# Pooled process executor plumbing: framed pipes, segment-exporting
# pickling, graph residency, and the resident worker main loop.
# ----------------------------------------------------------------------

def _write_frame(fd: int, blob: bytes) -> None:
    """Write one length-prefixed frame, handling short writes."""
    view = memoryview(struct.pack("<Q", len(blob)) + blob)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on EOF (peer died/closed)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        b = os.read(fd, n - got)
        if not b:
            return None
        chunks.append(b)
        got += len(b)
    return b"".join(chunks)


def _read_frame(fd: int) -> bytes | None:
    header = _read_exact(fd, 8)
    if header is None:
        return None
    (n,) = struct.unpack("<Q", header)
    return _read_exact(fd, n)


def _fn_shippable(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` is resolvable by name in a pool worker.

    Pool workers fork once and then outlive the closures a phase builds
    per barrier, so only module-level functions can cross: anything else
    (closures, lambdas, methods) is rejected with
    :class:`UnshippableTaskError` before the barrier dispatches.
    """
    mod = getattr(fn, "__module__", None)
    qual = getattr(fn, "__qualname__", None)
    if not mod or not qual or "." in qual:
        return False
    module = sys.modules.get(mod)
    return module is not None and getattr(module, qual, None) is fn


def _resolve_body(ref: tuple[str, str]) -> Callable[..., Any]:
    """Worker-side inverse of :func:`_fn_shippable`'s name capture."""
    mod_name, qual = ref
    module = sys.modules.get(mod_name)
    if module is None:  # pragma: no cover - module imported post-fork
        import importlib

        module = importlib.import_module(mod_name)
    fn = getattr(module, qual, None)
    if fn is None:
        raise RuntimeError(
            f"cannot resolve task body {mod_name}.{qual} in pool worker"
        )
    return fn


def _discard_untracked_segment(seg: Any) -> None:
    """Unlink a creator-owned (tracker-unregistered) segment quietly.

    Balances the resource tracker by registering before the unlink
    (which unregisters internally); if the consumer already unlinked
    the segment, the provisional registration is rolled back — either
    way the tracker daemon never prints a KeyError or leak warning.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.register(seg._name, "shared_memory")  # noqa: SLF001
        seg.unlink()
    except FileNotFoundError:
        try:
            resource_tracker.unregister(seg._name, "shared_memory")  # noqa: SLF001
        # repro-lint: disable-next-line=swallowed-error -- tracker API is CPython-internal; registration was provisional
        except Exception:  # pragma: no cover
            pass
    # repro-lint: disable-next-line=swallowed-error -- cleanup on an already-failed path must not mask the original error
    except Exception:  # pragma: no cover
        pass


def _sweep_family_segments() -> None:
    """Unlink leftover family segments a dead worker failed to consume.

    Resident segments (still owned by the parent and valid across pool
    restarts) are exempt; everything else under this process family's
    prefix is, at teardown time, an orphan of the aborted dispatch.
    """
    from multiprocessing import shared_memory

    for name in colfab.leaked_segments():
        if name in colfab._resident_registry:
            continue
        try:
            seg = shared_memory.SharedMemory(name=name)
        # repro-lint: disable-next-line=swallowed-error -- segment vanished between listing and attach; nothing left to clean
        except FileNotFoundError:  # pragma: no cover
            continue
        seg.close()
        seg.unlink()


class _SegmentPickler(pickle.Pickler):
    """Pickler that exports large arrays into shared-memory segments.

    Resident objects (and the arrays already exported for them) become
    tiny persistent ids resolved against the worker's resident cache;
    any other contiguous-representable ndarray at or above the wire
    threshold rides an ephemeral segment whose ownership transfers to
    the decoding side.  Everything else pickles inline.
    """

    def __init__(self, file: Any, resident_pids: dict[int, tuple] | None = None):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._resident_pids = resident_pids or {}
        self._exported: dict[int, tuple] = {}
        #: Ephemeral segments created while pickling (creator-closed);
        #: the caller unlinks them if the dispatch never reaches a
        #: consumer.
        self.segments: list[Any] = []

    def persistent_id(self, obj: Any) -> tuple | None:
        pid = self._resident_pids.get(id(obj))
        if pid is not None:
            return pid
        if (
            isinstance(obj, np.ndarray)
            and not obj.dtype.hasobject
            and obj.nbytes >= _SHM_THRESHOLD
        ):
            cached = self._exported.get(id(obj))
            if cached is None:
                raw = np.ascontiguousarray(obj)
                seg = colfab._create_shared_segment(raw)
                seg.close()
                self.segments.append(seg)
                cached = (
                    "nd",
                    seg.name,
                    np.lib.format.dtype_to_descr(raw.dtype),
                    raw.shape,
                )
                # repro-lint: disable-next-line=deep-determinism-taint -- id() is a process-local dedupe key; segment names/indices come from deterministic insertion order
                self._exported[id(obj)] = cached
            return cached
        return None

    def unlink_segments(self) -> None:
        for seg in self.segments:
            _discard_untracked_segment(seg)
        self.segments = []


class _SegmentUnpickler(pickle.Unpickler):
    """Inverse of :class:`_SegmentPickler` (worker and parent side)."""

    def __init__(self, file: Any, residents: dict[str, dict] | None = None):
        super().__init__(file)
        self._residents = residents or {}
        self._loaded: dict[str, np.ndarray] = {}

    def persistent_load(self, pid: tuple) -> Any:
        kind = pid[0]
        if kind == "nd":
            _, name, descr, shape = pid
            arr = self._loaded.get(name)
            if arr is None:
                arr = _load_ephemeral_array(name, descr, shape)
                self._loaded[name] = arr
            return arr
        if kind == "res":
            entry = self._resident_entry(pid[1], pid[2])
            return entry["obj"]
        if kind == "rref":
            entry = self._resident_entry(pid[1], pid[2])
            return entry["arrays"][pid[3]]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    def _resident_entry(self, name: str, gen: int) -> dict:
        entry = self._residents.get(name)
        if entry is None or entry["gen"] != gen:
            have = None if entry is None else entry["gen"]
            raise pickle.UnpicklingError(
                f"resident {name!r} generation {gen} not installed in this "
                f"worker (have {have})"
            )
        return entry


def _load_ephemeral_array(
    name: str, descr: Any, shape: tuple[int, ...]
) -> np.ndarray:
    """Adopt one ephemeral segment as a zero-copy array, unlinking it.

    The returned array *is* the mapping: ``unlink`` drops the name
    immediately (exactly-once consumption, nothing to leak), and
    divorcing the mapping from its wrapper leaves the pages alive until
    the array's last view dies — refcounting munmaps them.  This is the
    difference between memcpy-ing every multi-megabyte result/payload
    through private heap and just keeping the pages the producer already
    wrote.
    """
    seg = colfab._attach_shared_segment(name)
    dtype = np.lib.format.descr_to_dtype(descr)
    count = 1
    for dim in shape:
        count *= int(dim)
    arr = np.frombuffer(seg.buf, dtype=dtype, count=count).reshape(shape)
    seg.unlink()
    colfab._defuse_segment(seg)
    return arr


def _dumps_with_segments(
    obj: Any, resident_pids: dict[int, tuple] | None = None
) -> tuple[bytes, list[Any]]:
    """Pickle ``obj`` through the segment exporter; unlink on failure."""
    buf = io.BytesIO()
    pickler = _SegmentPickler(buf, resident_pids)
    try:
        pickler.dump(obj)
    except Exception:
        pickler.unlink_segments()
        raise
    return buf.getvalue(), pickler.segments


def _loads_with_segments(
    blob: bytes, residents: dict[str, dict] | None = None
) -> Any:
    return _SegmentUnpickler(io.BytesIO(blob), residents).load()


def _export_resident(obj: Any) -> dict[str, Any]:
    """Export one immutable object as shared segments plus a pickle blob.

    Returns the parent-side registry entry body: the blob (with large
    arrays replaced by manifest indices), the segment manifest
    ``(name, dtype descr, shape)`` workers attach zero-copy, the live
    ``SharedMemory`` handles (parent owns the unlink), strong references
    to the exported source arrays (id-stability for the ``rref`` map),
    and the ``id(array) -> manifest index`` map itself.
    """
    manifest: list[tuple[str, Any, tuple[int, ...]]] = []
    segments: list[Any] = []
    arrays: list[np.ndarray] = []
    array_ids: dict[int, int] = {}

    class _ResidentPickler(pickle.Pickler):
        def persistent_id(self, o: Any) -> tuple | None:
            if (
                isinstance(o, np.ndarray)
                and not o.dtype.hasobject
                and o.nbytes >= _SHM_THRESHOLD
            ):
                idx = array_ids.get(id(o))
                if idx is None:
                    raw = np.ascontiguousarray(o)
                    seg = colfab._create_shared_segment(raw, tracked=True)
                    seg.close()
                    colfab.register_resident_segment(seg.name, raw.nbytes)
                    idx = len(arrays)
                    arrays.append(o)
                    segments.append(seg)
                    manifest.append(
                        (
                            seg.name,
                            np.lib.format.dtype_to_descr(raw.dtype),
                            raw.shape,
                        )
                    )
                    # repro-lint: disable-next-line=deep-determinism-taint -- id() is a process-local dedupe key; manifest indices come from deterministic insertion order
                    array_ids[id(o)] = idx
                return ("rarr", idx)
            return None

    buf = io.BytesIO()
    try:
        _ResidentPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    except Exception:
        for seg in segments:
            try:
                seg.unlink()
            # repro-lint: disable-next-line=swallowed-error -- cleanup of a half-built export; the pickling error propagates
            except FileNotFoundError:  # pragma: no cover
                pass
            colfab.unregister_resident_segment(seg.name)
        raise
    return {
        "blob": buf.getvalue(),
        "manifest": manifest,
        "segments": segments,
        "arrays": arrays,
        "array_ids": array_ids,
    }


def _resident_frame(name: str, entry: dict[str, Any]) -> bytes:
    """Parent-side: the framed command installing ``entry`` in a worker."""
    return pickle.dumps(
        ("resident", name, entry["gen"], entry["blob"], entry["manifest"]),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _install_resident(
    residents: dict[str, dict],
    name: str,
    gen: int,
    blob: bytes,
    manifest: list[tuple[str, Any, tuple[int, ...]]],
) -> None:
    """Worker-side: map a resident's segments zero-copy and cache it."""
    old = residents.pop(name, None)
    if old is not None:
        for seg in old["shms"]:
            seg.close()
    arrays: list[np.ndarray] = []
    shms: list[Any] = []
    for seg_name, descr, shape in manifest:
        seg = colfab._attach_shared_segment(seg_name)
        dtype = np.lib.format.descr_to_dtype(descr)
        count = 1
        for dim in shape:
            count *= int(dim)
        arr = np.frombuffer(seg.buf, dtype=dtype, count=count).reshape(shape)
        # Residents are immutable by contract; a task body that tries to
        # write through a zero-copy view fails loudly instead of
        # corrupting every sibling worker's view.
        arr.flags.writeable = False
        arrays.append(arr)
        shms.append(seg)

    class _ResidentUnpickler(pickle.Unpickler):
        def persistent_load(self, pid: tuple) -> Any:
            if pid[0] == "rarr":
                return arrays[pid[1]]
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    obj = _ResidentUnpickler(io.BytesIO(blob)).load()
    residents[name] = {"gen": gen, "obj": obj, "arrays": arrays, "shms": shms}


def _dump_delta(task: HostTask, delta: dict[str, Any]) -> bytes:
    """Worker-side: serialize one delta; a result that does not pickle
    becomes the task's failure, with a diagnostic naming the task."""
    try:
        blob, _segments = _dumps_with_segments(delta)
        return blob
    except Exception as perr:  # noqa: BLE001 — converted to task failure
        delta = dict(
            delta,
            result=None,
            exc=RuntimeError(
                f"host {task.host} task {task.label!r} returned an "
                f"unshippable result ({perr}); task outputs must pickle"
            ),
        )
        blob, _segments = _dumps_with_segments(delta)
        return blob


def _run_spec(spec_blob: bytes, residents: dict[str, dict]) -> tuple[str, Any]:
    """Worker-side: run one dispatch spec, return the reply envelope."""
    from .comm import Communicator
    from .faults import FaultInjector
    from .stats import PhaseStats

    spec = _loads_with_segments(spec_blob, residents)
    injector = None
    if spec["injector"] is not None:
        injector = FaultInjector.from_live_state(spec["injector"])
    comm = Communicator(
        spec["num_hosts"],
        buffer_size=spec["buffer_size"],
        injector=injector,
        max_retries=spec["max_retries"],
    )
    stats = PhaseStats(
        name=spec["phase"], comm=comm, num_hosts=spec["num_hosts"]
    )
    monitor = isolation.IsolationMonitor() if spec["monitor"] else None
    blobs: list[bytes] = []
    for tspec in spec["tasks"]:
        comm.preload_queues(
            tspec["host"],
            {
                tag: [(src, _decode_queued_payload(enc)) for src, enc in entries]
                for tag, entries in tspec["queues"].items()
            },
        )
        task = HostTask(
            tspec["host"],
            _resolve_body(tspec["fn"]),
            label=tspec["label"],
            payload=tspec["payload"] if tspec["has_payload"] else _NO_PAYLOAD,
        )
        delta = _run_shipped_task(stats, task, monitor, spec["phase"])
        blobs.append(_dump_delta(task, delta))
    return ("ok", blobs)


def _pool_worker_main(cmd_r: int, reply_w: int) -> None:
    """Resident worker: serve framed commands until EOF or ``exit``."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    residents: dict[str, dict] = {}
    while True:
        frame = _read_frame(cmd_r)
        if frame is None:
            os._exit(0)
        msg = pickle.loads(frame)
        kind = msg[0]
        if kind == "exit":
            os._exit(0)
        if kind == "resident":
            _install_resident(residents, msg[1], msg[2], msg[3], msg[4])
            continue
        try:
            reply: tuple[str, Any] = _run_spec(msg[1], residents)
        except BaseException as exc:  # noqa: BLE001 — worker must keep serving
            reply = ("error", f"{type(exc).__name__}: {exc}")
        _write_frame(reply_w, pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))


class ProcessExecutor(Executor):
    """A persistent pool of forked workers over private per-host ledgers.

    The GIL-free engine.  Workers fork once (lazily, at the first
    pooled barrier) and stay resident for the life of a
    ``CuSP.partition`` run: immutable inputs — the CSR graph, master
    array, edge assignment, proxy tables — are published once into
    named POSIX shared-memory segments (:meth:`publish`) that workers
    map as zero-copy NumPy views, and each barrier ships only a small
    dispatch spec (task refs, payload references, queue snapshots,
    live fault-channel state) over a framed pipe.  No graph bytes ever
    cross a pipe: payload arrays at or above the wire threshold ride
    ephemeral segments, and results/ledger deltas come back the same
    way.  The parent merges deltas in **host order** through the exact
    same ``merge_ledger`` path the thread executor uses, re-plays
    queue drains, adopts the fault channels' advanced RNG/op state,
    and folds in isolation evidence — so fault plans, crash recovery,
    sanitizer audits, and every accounting counter stay bit-identical
    to serial.

    Task bodies must be module-level functions (workers resolve them
    by name) taking their inputs through ``HostTask.payload``; a
    closure body or an unpicklable payload raises
    :class:`UnshippableTaskError` before anything is dispatched.
    Bodies must not write shared structures (worker writes die with
    the worker); declared outputs go through ``HostTask.apply``, which
    runs in the parent at the barrier.  The
    ``unshippable-task-capture`` lint rule enforces this statically.

    On platforms without ``os.fork`` the executor degrades to the
    serial direct path (still correct, no speedup).  :meth:`close`
    retires the pool and unlinks every resident segment; an abnormal
    worker death tears the pool down, reclaims every in-flight
    segment, and lets the next barrier respawn cleanly.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        check_isolation: bool = False,
        monitor: "isolation.IsolationMonitor | None" = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        if monitor is None and check_isolation:
            monitor = isolation.IsolationMonitor()
        self.monitor = monitor
        #: Live pool workers: ``{"pid", "cmd_w", "reply_r"}`` each.
        self._workers: list[dict[str, int]] = []
        #: Published residents by name: ``{"gen", "obj", "blob",
        #: "manifest", "segments", "arrays", "array_ids"}``.
        self._residents: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Graph residency
    # ------------------------------------------------------------------
    def publish(self, name: str, obj: Any) -> Any:
        """Export ``obj`` into shared segments and install it pool-wide.

        Idempotent per object identity; republishing a new object under
        an existing name bumps the generation, unlinks the old
        segments, and re-installs in every live worker (crash replays
        rebuild phase outputs, so names are stable but objects are
        not).
        """
        if not _CAN_FORK:  # pragma: no cover - non-POSIX platform
            return obj
        entry = self._residents.get(name)
        if entry is not None and entry["obj"] is obj and entry["blob"] is not None:
            return obj
        gen = entry["gen"] + 1 if entry is not None else 0
        if entry is not None:
            self._unlink_resident(entry)
        exported = _export_resident(obj)
        exported["gen"] = gen
        exported["obj"] = obj
        self._residents[name] = exported
        self._broadcast_resident(name, exported)
        return obj

    def _unlink_resident(self, entry: dict[str, Any]) -> None:
        for seg in entry["segments"]:
            try:
                seg.unlink()
            # repro-lint: disable-next-line=swallowed-error -- already unlinked by an earlier teardown; accounting below stays exact
            except FileNotFoundError:  # pragma: no cover
                pass
            colfab.unregister_resident_segment(seg.name)
        entry["segments"] = []
        entry["blob"] = None

    def _broadcast_resident(self, name: str, entry: dict[str, Any]) -> None:
        if not self._workers:
            return
        msg = _resident_frame(name, entry)
        for worker in self._workers:
            try:
                _write_frame(worker["cmd_w"], msg)
            except OSError:
                # A worker died idle; retire the pool (residents stay
                # valid — the parent still owns their segments) and let
                # the next barrier respawn and replay them.
                self._destroy_pool()
                return

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, width: int) -> None:
        if len(self._workers) >= width:
            return
        with warnings.catch_warnings():
            # CPython warns on fork() in a threaded process; pool
            # workers only touch the snapshot and their own pipes.
            warnings.simplefilter("ignore", DeprecationWarning)
            while len(self._workers) < width:
                self._spawn_worker()

    def _spawn_worker(self) -> None:
        cmd_r, cmd_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                os.close(cmd_w)
                os.close(reply_r)
                # Drop inherited parent-side pipe ends of sibling
                # workers, so a sibling's death yields EOF in the
                # parent instead of a silent hang.
                for sibling in self._workers:
                    os.close(sibling["cmd_w"])
                    os.close(sibling["reply_r"])
                _pool_worker_main(cmd_r, reply_w)
            except BaseException:  # noqa: BLE001 — worker must exit
                status = 1
            os._exit(status)
        os.close(cmd_r)
        os.close(reply_w)
        worker = {"pid": pid, "cmd_w": cmd_w, "reply_r": reply_r}
        self._workers.append(worker)
        # Replay every published resident into the fresh worker.
        for name, entry in self._residents.items():
            if entry["blob"] is None:
                entry_new = _export_resident(entry["obj"])
                entry_new["gen"] = entry["gen"] + 1
                entry_new["obj"] = entry["obj"]
                self._residents[name] = entry_new
                entry = entry_new
            _write_frame(worker["cmd_w"], _resident_frame(name, entry))

    def _destroy_pool(self, graceful: bool = False) -> dict[int, int]:
        """Retire every worker; returns ``pid -> exit code``.

        ``graceful`` sends ``exit`` and lets idle workers leave on
        their own; otherwise workers are SIGKILLed first — a worker
        blocked writing a reply into a full pipe nobody will read must
        not deadlock the reaper.
        """
        codes: dict[int, int] = {}
        for worker in self._workers:
            if graceful:
                try:
                    _write_frame(worker["cmd_w"], pickle.dumps(("exit",)))
                # repro-lint: disable-next-line=swallowed-error -- worker already died; the waitpid below still reaps it
                except OSError:  # pragma: no cover
                    pass
            else:
                try:
                    os.kill(worker["pid"], signal.SIGKILL)
                # repro-lint: disable-next-line=swallowed-error -- worker already exited; the waitpid below still reaps it
                except ProcessLookupError:  # pragma: no cover
                    pass
            os.close(worker["cmd_w"])
        for worker in self._workers:
            try:
                _, status = os.waitpid(worker["pid"], 0)
                codes[worker["pid"]] = os.waitstatus_to_exitcode(status)
            # repro-lint: disable-next-line=swallowed-error -- already reaped elsewhere (e.g. a test harness); exit code defaults below
            except ChildProcessError:  # pragma: no cover
                codes[worker["pid"]] = -1
            os.close(worker["reply_r"])
        self._workers = []
        return codes

    def close(self) -> None:
        """Retire the pool and unlink every resident segment."""
        self._destroy_pool(graceful=True)
        for entry in self._residents.values():
            self._unlink_resident(entry)
        self._residents.clear()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        # repro-lint: disable-next-line=swallowed-error -- interpreter teardown; best-effort release only
        except Exception:
            pass

    def _width(self, num_tasks: int) -> int:
        workers = self._max_workers
        if workers is None:
            # One worker per core: on a single-core box a second worker
            # only adds context-switching and duplicate group-cache
            # hydration (measurably slower); pass max_workers explicitly
            # to exercise multi-worker paths regardless of core count.
            workers = min(num_tasks, os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    def run(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        hosts = [t.host for t in tasks]
        if len(set(hosts)) != len(hosts):
            raise ValueError("one task per host required in run()")
        if len(tasks) == 1 or not _CAN_FORK:
            # Single task: no concurrency to gain.  No fork(): degrade
            # to the reference semantics rather than fail.
            return [_run_direct(stats, t) for t in tasks]
        deltas = self._pool_dispatch(stats, tasks)
        # Decode queued payloads for *every* delta up front — a delta
        # discarded on the failure path below must still reclaim its
        # shared-memory segments, which the decoded batches do
        # themselves (``release_shared`` runs from their finalizer when
        # the discarded dict is dropped).
        for delta in deltas:
            delta["queued"] = [
                (dst, tag, _decode_queued_payload(p))
                for dst, tag, p in delta["queued"]
            ]
        order = sorted(range(len(tasks)), key=lambda i: tasks[i].host)
        if self.monitor is not None:
            # All workers ran (as with threads), so all evidence counts;
            # host order keeps the merged log deterministic.
            for i in order:
                self._merge_evidence(deltas[i]["monitor"])
        results: list[Any] = [None] * len(tasks)
        failure: Exception | None = None
        for i in order:
            delta = deltas[i]
            self._merge_delta(stats, tasks[i], delta)
            if delta["exc"] is not None:
                # First failure in host order wins; later hosts' deltas
                # are discarded unmerged (their parent-side channels
                # were never touched, so there is nothing to release).
                failure = delta["exc"]
                break
            result = delta["result"]
            if tasks[i].apply is not None:
                result = tasks[i].apply(result)
            results[i] = result
        if failure is not None:
            raise failure
        return results

    def _resident_pids(self) -> dict[int, tuple]:
        """``id(object) -> persistent id`` map for the spec pickler."""
        pids: dict[int, tuple] = {}
        for name, entry in self._residents.items():
            if entry["blob"] is None:
                continue
            pids[id(entry["obj"])] = ("res", name, entry["gen"])
            for aid, idx in entry["array_ids"].items():
                pids[aid] = ("rref", name, entry["gen"], idx)
        return pids

    def _pool_dispatch(
        self, stats: PhaseStats, tasks: list[HostTask]
    ) -> list[dict[str, Any]]:
        """Run one barrier on the resident pool; collect every delta.

        Raises :class:`UnshippableTaskError` — before any worker forks,
        with every segment created so far reclaimed — when a body is
        not a module-level function or a dispatch spec does not pickle.
        Worker death or a worker-side error tears the pool down,
        reclaims every in-flight segment, and raises.
        """
        for task in tasks:
            if not _fn_shippable(task.fn):
                raise UnshippableTaskError(
                    f"host {task.host} task {task.label!r}: body {task.fn!r} "
                    "is not a module-level function (pool workers resolve "
                    "bodies by name); pass its inputs through payload="
                )
        chunks = _split_chunks(len(tasks), self._width(len(tasks)))
        phase_name = getattr(stats, "name", "")
        comm = stats.comm
        injector = comm.injector
        inj_state = injector.export_live_state() if injector is not None else None
        resident_pids = self._resident_pids()
        spec_blobs: list[bytes] = []
        spec_segments: list[list[Any]] = []
        try:
            for chunk in chunks:
                task_specs = []
                for i in chunk:
                    task = tasks[i]
                    has_payload = task.payload is not _NO_PAYLOAD
                    queues: dict[str, list[tuple[int, Any]]] = {}
                    for tag, entries in comm.snapshot_queues(task.host).items():
                        # borrow=True: the parent keeps ownership of
                        # every segment these blobs reference, so an
                        # unshippable spec (below), a dead worker, or a
                        # tag the task never drains cannot leak or
                        # double-free — the queue entries themselves
                        # release the segments when they are drained or
                        # dropped.
                        queues[tag] = [
                            (src, _encode_queued_payload(payload, borrow=True))
                            for src, payload in entries
                        ]
                    task_specs.append(
                        {
                            "host": task.host,
                            "fn": (task.fn.__module__, task.fn.__qualname__),
                            "label": task.label,
                            "has_payload": has_payload,
                            "payload": task.payload if has_payload else None,
                            "queues": queues,
                        }
                    )
                spec = {
                    "phase": phase_name,
                    "num_hosts": comm.num_hosts,
                    "buffer_size": comm.buffer_size,
                    "max_retries": comm.max_retries,
                    "monitor": self.monitor is not None,
                    "injector": inj_state,
                    "tasks": task_specs,
                }
                blob, segments = _dumps_with_segments(spec, resident_pids)
                spec_blobs.append(blob)
                spec_segments.append(segments)
        except Exception as perr:  # noqa: BLE001 — reclaim, then re-raise typed
            for segments in spec_segments:
                for seg in segments:
                    _discard_untracked_segment(seg)
            # Queue entries already wire-encoded for this spec need no
            # reclaim: borrow-mode encoding left every segment owned by
            # the still-queued parent batches.
            raise UnshippableTaskError(
                f"phase {phase_name!r}: dispatch spec does not pickle "
                f"({perr}); task payloads must pickle"
            ) from perr
        self._ensure_pool(len(chunks))
        workers = self._workers[: len(chunks)]
        sent = 0
        for worker, blob in zip(workers, spec_blobs):
            try:
                _write_frame(
                    worker["cmd_w"],
                    pickle.dumps(("run", blob), protocol=pickle.HIGHEST_PROTOCOL),
                )
                sent += 1
            except OSError:
                break
        outcomes: list[tuple[str, Any] | None] = []
        for worker in workers[:sent]:
            frame = _read_frame(worker["reply_r"])
            outcomes.append(None if frame is None else pickle.loads(frame))
        outcomes.extend([None] * (len(workers) - sent))
        deltas: list[dict[str, Any] | None] = [None] * len(tasks)
        broken: list[tuple[list[int], dict[str, int]]] = []
        errors: list[str] = []
        for worker, chunk, outcome in zip(workers, chunks, outcomes):
            if outcome is None:
                broken.append((chunk, worker))
                continue
            if outcome[0] == "error":
                errors.append(outcome[1])
                continue
            for i, blob in zip(chunk, outcome[1]):
                deltas[i] = _loads_with_segments(blob)
        if not broken and not errors:
            return [d for d in deltas if d is not None]
        # Failure path: reclaim every in-flight segment before raising.
        # Deltas already decoded adopted their reply segments (unlinked
        # on load); decoding + releasing the queued wire payloads of
        # surviving deltas reclaims those too; the family sweep below
        # unlinks whatever a dead worker never consumed (spec segments,
        # a half-shipped reply).
        for delta in deltas:
            if delta is not None:
                for _dst, _tag, enc in delta["queued"]:
                    payload = _decode_queued_payload(enc)
                    if isinstance(payload, MessageBatch):
                        payload.release_shared()
        codes = self._destroy_pool()
        _sweep_family_segments()
        if errors:
            raise RuntimeError(
                f"process executor worker failed: {'; '.join(errors)}"
            )
        parts = [
            f"hosts {[tasks[i].host for i in chunk]} "
            f"(exit {codes.get(worker['pid'], -1)})"
            for chunk, worker in broken
        ]
        raise RuntimeError(
            "process executor worker(s) died without shipping their "
            f"deltas: {', '.join(parts)}"
        )

    def _merge_evidence(self, evidence: dict[str, Any] | None) -> None:
        if evidence is None or self.monitor is None:
            return
        mon = self.monitor
        for access in evidence["accesses"]:
            if len(mon.accesses) < mon.max_recorded:
                mon.accesses.append(access)
        mon.num_accesses += evidence["num_accesses"]
        mon.violations.extend(evidence["violations"])

    @staticmethod
    def _merge_delta(
        stats: PhaseStats, task: HostTask, delta: dict[str, Any]
    ) -> None:
        """Parent-side mirror of :meth:`LedgerHostView.merge`."""
        comm = stats.comm
        ledger = comm.ledger(task.host)
        vectors = delta["vectors"]
        ledger.sent_bytes[:] = vectors["sent_bytes"]
        ledger.sent_messages[:] = vectors["sent_messages"]
        ledger.retry_bytes[:] = vectors["retry_bytes"]
        ledger.retry_messages[:] = vectors["retry_messages"]
        ledger.stream_bytes[:] = vectors["stream_bytes"]
        ledger.stream_logical[:] = vectors["stream_logical"]
        ledger.backoff_units = delta["backoff_units"]
        # queued and fault_events must be in place *before* merge_ledger:
        # CommSan's on_merge mirrors both.
        ledger.queued = list(delta["queued"])
        ledger.fault_events = list(delta["fault_events"])
        comm.merge_ledger(ledger)
        stats.disk_bytes[task.host] += delta["disk_bytes"]
        stats.compute_units[task.host] += delta["compute_units"]
        injector = comm.injector
        if injector is not None:
            injector.events.extend(ledger.fault_events)
            channel_state = delta["channel"]
            if channel_state is not None:
                channel = injector.channel(task.host)
                channel.ops = channel_state["ops"]
                channel._rng.bit_generator.state = channel_state["rng"]
                channel.fired = list(channel_state["fired"])
                injector.commit(channel)
        for tag, count in delta["recv_log"]:
            comm.replay_recv(task.host, tag, count)


def make_executor(spec: str | Executor | None) -> Executor:
    """Resolve an executor from a name, ``None``, or an instance."""
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "parallel":
            return ParallelExecutor()
        if spec == "parallel-checked":
            # Parallel with the host-isolation race detector attached
            # (repro.analysis.isolation): same bit-identical results,
            # plus a proof that no task left its lane.
            return ParallelExecutor(check_isolation=True)
        if spec == "process":
            return ProcessExecutor()
        if spec == "process-checked":
            return ProcessExecutor(check_isolation=True)
        raise ValueError(
            f"unknown executor {spec!r}; expected one of {EXECUTOR_NAMES}"
        )
    raise TypeError(f"cannot build an executor from {type(spec).__name__}")
