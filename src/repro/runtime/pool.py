"""The process pool behind :class:`ProcessExecutor` — the GIL-free engine.

:class:`ProcessExecutor` runs a phase's host tasks in lanes: the calling
process is the first lane of every barrier, and a resident pool of
forked worker processes the others.  Each barrier ships a dispatch spec
(task refs, payloads, the declared part of each host's inbox, live fault
state) to the workers, which record the same private ledger a thread
would and ship a picklable delta (accounting vectors, queued payloads,
fault-channel RNG state, isolation evidence) back over a pipe; the
parent runs its own chunk of hosts meanwhile, as a thread would.  The
parent adopts each delta into a host view and hands it, behind its own
lane's views, to the barrier in :mod:`repro.runtime.executor` — the
host-order merge is that module's, shared with every executor, and is
not re-implemented here.  A stepped phase
(:meth:`~repro.runtime.executor.Executor.run_rounds`) ships its spec
once: the worker keeps its hosts' bodies live and serves each later
round from a ``step`` command carrying the round boundary's reply.
This module is everything between that barrier and the body: the spec
and its reply, the view both ends of the pipe agree on, pipe framing,
and the workers' spawn/retire/teardown lifecycle.  How large arrays cross
without touching a pipe is :mod:`repro.runtime.residency`.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import warnings
import weakref
from dataclasses import replace
from typing import Any, Callable, Generator

import numpy as np

from ..analysis import isolation
from . import residency
from .colfab import ColumnSchema, ReceivedBatch
from .comm import Communicator
from .executor import (
    Executor,
    HostTask,
    HostView,
    UnshippableTaskError,
    WorkerLostError,
    _handed_over,
    _in_turn,
    _Outcome,
    _Rounds,
    _run_private,
    _Stepped,
    _steps_in_turn,
)
from .faults import FaultInjector
from .stats import PhaseStats

__all__ = ["ProcessExecutor"]

_CAN_FORK = hasattr(os, "fork")

#: True inside a resident pool worker (set by ``_pool_worker_main``).
#: Phase code keys worker-local recompute caches off this flag so they
#: never grow in the parent.
_IN_POOL_WORKER = False

#: Every :func:`worker_cache` of this process.  A worker empties them,
#: with its resident mappings, when the parent ends a run; the parent,
#: whose lane runs bodies too, empties its own.
_worker_caches: list[dict] = []

#: Every live pool of this process.  A fresh worker inherits the parent
#: side of all of them and must hold none of it: a command pipe's write
#: end kept open in another pool's worker withholds the EOF that tells
#: the worker reading it that the parent died, for as long as that other
#: worker lives.
_live_pools: "weakref.WeakSet[ProcessExecutor]" = weakref.WeakSet()


def worker_cache() -> dict:
    """A dict for what a pool worker may keep from one barrier to the
    next to save a recompute.  It lives as long as the run: a worker
    outlives the ``partition()`` call, so whatever it keeps is dropped
    when the parent ends the run (``ProcessExecutor.end_run``), with the
    resident mappings the entries were computed from."""
    cache: dict = {}
    _worker_caches.append(cache)
    return cache


class _ShippedHostView(HostView):
    """One host's ledger view on either side of a pool pipe.

    In the worker it is the view the task runs against: identical to
    :class:`HostView` except every queue drain is logged, because
    the worker drains the queue snapshot shipped in its dispatch spec
    and the parent must re-play the same drains against the real
    communicator (:meth:`Communicator.replay_recv`).  :meth:`export`
    packs what the view recorded into the picklable delta.

    In the parent a fresh view takes that delta in (:meth:`adopt`) and
    from then on is the view a thread would have recorded on: the
    shared barrier merges or releases it the same way.
    """

    def begin(self) -> None:
        super().begin()
        #: ``(tag, count)`` per non-empty drain, in drain order.
        self.recv_log: list[tuple[str, int]] = []

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        out = super().recv_all(tag)
        if out:
            # Only non-empty drains are logged, matching when the
            # communicator notifies its observer.
            self.recv_log.append((tag, len(out)))
        return out

    def recv_all_batch(self, tag: str, schema: ColumnSchema) -> ReceivedBatch:
        return ReceivedBatch(schema, self.recv_all(tag))

    def export(self) -> dict[str, Any]:
        """Worker-side: everything this view recorded, picklable.

        Together with the task's result that is all the parent needs to
        make its shared state bit-identical to a serial run of the
        task: the private ledger's :meth:`~repro.runtime.comm.CommLedger.state`
        (accounting, queued payloads, fault events), the channel's
        advanced RNG/op state, disk/compute charges, and the drain log.
        """
        channel = self._channel
        return dict(
            self.ledger.state(),
            channel=None if channel is None else channel.live_state(),
            disk_bytes=self.disk_bytes,
            compute_units=self.compute_units,
            recv_log=self.recv_log,
        )

    def adopt(self, delta: dict[str, Any]) -> None:
        """Parent-side inverse of :meth:`export`."""
        self.ledger.load(delta)
        self.disk_bytes = delta["disk_bytes"]
        self.compute_units = delta["compute_units"]
        self.recv_log = delta["recv_log"]
        if self._channel is not None:
            self._channel.restore(delta["channel"])

    def merge(self) -> None:
        super().merge()
        for tag, count in self.recv_log:
            self._stats.comm.replay_recv(self.host, tag, count)


def _shipped_delta(
    view: _ShippedHostView,
    result: Any,
    exc: Exception | None,
    monitor: isolation.IsolationMonitor | None,
) -> dict[str, Any]:
    """Worker-side: the serializable delta of one body's run (or one
    round of a stepped body) on ``view`` — the view's
    :meth:`~_ShippedHostView.export` plus the result or failure and the
    evidence of the isolation monitor attached for just this run, if
    any.  A result that does not pickle is diagnosed where the delta is
    serialized (:func:`_dump_delta`)."""
    if exc is not None:
        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — substitute a shippable summary
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    evidence = None
    if monitor is not None:
        evidence = {
            "accesses": monitor.accesses,
            "num_accesses": monitor.num_accesses,
            "violations": monitor.violations,
        }
    return dict(view.export(), result=result, exc=exc, monitor=evidence)


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


def _last_words(reply_r: int) -> str:
    """``": <exception>"`` when the first unread frame of a reaped
    worker's reply pipe is the note an exception left as it killed the
    worker (:meth:`ProcessExecutor._spawn_worker`), else ``""``.  The
    worker was the pipe's only writer, so the read cannot block; the
    caller must know the pipe holds whole frames only (no read of it
    was cut short)."""
    frame = _read_frame(reply_r)
    if frame is None:
        return ""
    try:
        kind, words = pickle.loads(frame)
    except Exception:  # noqa: BLE001 — a reply the death tore, then the note
        return ""
    return f": {words}" if kind == "died" else ""


def _fn_shippable(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` is a module-level function: the only kind pickle
    ships by reference, and the only kind a pool worker — forked once,
    outliving the closures a phase builds per barrier — can resolve."""
    mod = getattr(fn, "__module__", None)
    qual = getattr(fn, "__qualname__", None)
    if not mod or not qual or "." in qual:
        return False
    module = sys.modules.get(mod)
    return module is not None and getattr(module, qual, None) is fn


def _dump_delta(task: HostTask, delta: dict[str, Any]) -> tuple[bytes, bytes]:
    """Worker-side: serialize one delta; a result that does not pickle,
    or an array whose segment cannot be written (a full ``/dev/shm``),
    becomes the task's failure, with a diagnostic naming the task.

    The queued payloads ship as their own blob because the parent loads
    them differently (:func:`_load_delta`)."""
    payloads = delta.pop("queued")
    queued = None
    try:
        queued, _segments = residency.dumps_with_segments(payloads)
        blob, _segments = residency.dumps_with_segments(delta)
    except Exception as perr:  # noqa: BLE001 — converted to task failure
        if queued is None:
            queued, _segments = residency.dumps_with_segments([])
        delta = dict(
            delta,
            result=None,
            exc=RuntimeError(
                f"host {task.host} task {task.label!r} returned an "
                f"unshippable result ({type(perr).__name__}: {perr}); task "
                "outputs must pickle and their arrays fit in shared memory"
            ),
        )
        blob, _segments = residency.dumps_with_segments(delta)
    return blob, queued


def _load_delta(blobs: tuple[bytes, bytes]) -> dict[str, Any]:
    """Parent-side inverse of :func:`_dump_delta`.

    Queued payloads are loaded relayed: most are about to be shipped on
    to the worker that drains them, and a relayed array goes by segment
    name.  Everything else — task results above all, which outlive the
    run — gives its segment names up at load, so nothing stays in
    ``/dev/shm`` once the queues are drained.
    """
    blob, queued = blobs
    delta = residency.loads_with_segments(blob)
    delta["queued"] = residency.loads_with_segments(queued, relay=True)
    return delta


def _open_spec(
    spec_blob: bytes, residents: dict[str, dict]
) -> tuple[dict[str, Any], PhaseStats] | str:
    """Worker-side: a dispatch spec and the stats its bodies record on,
    or why the spec does not load here."""
    try:
        spec = residency.loads_with_segments(spec_blob, residents)
    except (AttributeError, ImportError) as exc:
        # The spec names a class or function this worker's heap
        # snapshot — as old as the pool's first barrier — does not have.
        return f"{type(exc).__name__}: {exc}"
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
    return spec, stats


def _run_spec(spec_blob: bytes, residents: dict[str, dict]) -> tuple[str, Any]:
    """Worker-side: run one dispatch spec, return the reply envelope."""
    opened = _open_spec(spec_blob, residents)
    if isinstance(opened, str):
        return ("stale", opened)
    spec, stats = opened
    blobs: list[tuple[bytes, bytes]] = []
    for tspec in spec["tasks"]:
        task = tspec["task"]
        # Popped: once drained, an inbox block must not stay mapped
        # (and resident) for the rest of the spec.
        stats.comm.preload_queues(task.host, tspec.pop("queues"))
        view = _ShippedHostView(stats, task.host, task.drains)
        monitor = isolation.IsolationMonitor() if spec["monitor"] else None
        result, exc = _run_private(task, view, monitor, spec["phase"])
        blobs.append(_dump_delta(task, _shipped_delta(view, result, exc, monitor)))
    return ("ok", blobs)


def _step_bodies(
    bodies: list[_Stepped], reply: Any, spec: dict[str, Any]
) -> tuple[str, Any]:
    """Worker-side: one round of every stepped body this worker holds."""
    blobs: list[tuple[bytes, bytes]] = []
    for body in bodies:
        monitor = isolation.IsolationMonitor() if spec["monitor"] else None
        result, exc = body.step(reply, monitor, spec["phase"])
        blobs.append(_dump_delta(
            body.task, _shipped_delta(body.view, result, exc, monitor)
        ))
    return ("ok", blobs)


def _answer(reply_w: int, work: Callable[[], tuple[str, Any]]) -> None:
    """Worker-side: do one command's work and write its reply envelope."""
    try:
        reply = work()
    except BaseException as exc:  # noqa: BLE001 — worker must keep serving
        reply = ("error", f"{type(exc).__name__}: {exc}")
    _write_frame(reply_w, pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))


def _read_command(cmd_r: int) -> tuple:
    """Worker-side: the parent's next command.  EOF means the parent is
    gone, and so is this worker."""
    frame = _read_frame(cmd_r)
    if frame is None:
        os._exit(0)
    return pickle.loads(frame)


def _serve_rounds(
    spec_blob: bytes, residents: dict[str, dict], cmd_r: int, reply_w: int
) -> tuple:
    """Worker-side: serve a stepped phase — its first round from the
    spec, each later one from a ``step`` command carrying the round
    boundary's reply — with the hosts' bodies live in between.  Returns
    the first other command, which ends the phase: its bodies are
    dropped, finished or not (the parent raised a failure, or was
    interrupted)."""
    bodies: list[_Stepped] = []
    spec: dict[str, Any] = {}

    def first_round() -> tuple[str, Any]:
        opened = _open_spec(spec_blob, residents)
        if isinstance(opened, str):
            return ("stale", opened)
        spec.update(opened[0])
        bodies.extend(
            _Stepped(opened[1], tspec["task"], _ShippedHostView)
            for tspec in spec["tasks"]
        )
        return _step_bodies(bodies, None, spec)

    _answer(reply_w, first_round)
    while True:
        msg = _read_command(cmd_r)
        if msg[0] != "step":
            return msg
        _answer(reply_w, lambda: _step_bodies(
            bodies, residency.loads_with_segments(msg[1], residents), spec
        ))


def _pool_worker_main(cmd_r: int, reply_w: int) -> None:
    """Resident worker: serve framed commands until EOF or ``exit``."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    residents: dict[str, dict] = {}
    msg = _read_command(cmd_r)
    while True:
        kind = msg[0]
        if kind == "exit":
            os._exit(0)
        if kind == "resident":
            residency.install_resident(residents, *msg[1:])
        elif kind == "forget":
            # End of a run: the parent unlinked every resident segment,
            # so a mapping kept here would pin its pages for nobody.
            residents.clear()
            for cache in _worker_caches:
                cache.clear()
        elif kind == "rounds":
            # Serves the phase until a command of another kind, which is
            # handled next.
            msg = _serve_rounds(msg[1], residents, cmd_r, reply_w)
            continue
        else:
            _answer(reply_w, lambda: _run_spec(msg[1], residents))
        msg = _read_command(cmd_r)


class ProcessExecutor(Executor):
    """The calling process plus a persistent pool of forked workers,
    over private per-host ledgers.

    The GIL-free engine.  A barrier of ``n`` hosts splits into
    ``width`` contiguous chunks, one per lane, ``width`` being
    ``max_workers`` — how many hosts run at once — or else
    ``min(n, cpus)``.  The parent is the first lane: it writes the
    workers' specs, runs chunk 0 itself on plain :class:`HostView`
    objects (under the isolation monitor when one is attached, as
    threads run theirs), then reads the replies.  Its lane ships nothing — no spec,
    no delta, no segment for its results or for the blocks its hosts
    queue to one another — and ``width - 1`` workers run the other
    chunks; a single lane forks nothing and runs the hosts in turn.
    Workers fork once (lazily, at the first
    pooled barrier) and stay resident, heap warm, for the life of the
    executor — across the ``partition()`` calls of the ``CuSP`` that
    holds it — until :meth:`close`.  What belongs to one run lives as
    long as the run: immutable inputs — the CSR graph, master
    array, edge assignment, proxy tables — are published once into
    named POSIX shared-memory segments (:meth:`publish`) that workers
    map as zero-copy NumPy views, and :meth:`end_run` unlinks them and
    has every worker drop its mappings and recompute caches, so
    between runs nothing is in ``/dev/shm`` and an idle worker holds
    its heap only.  Nothing a run needs reaches a worker by fork
    inheritance (the snapshot is as old as the first barrier): it
    arrives by payload or resident.  Each barrier ships only a small
    dispatch spec (task refs, payload references, a snapshot of the
    queue tags each task declares in ``HostTask.drains``, live
    fault-channel state) over a framed pipe.  A barrier input ships
    once: no graph bytes ever cross a pipe, a queue no task drains
    never leaves the parent, round-invariant tables are published, and
    arrays the lanes write in place are one writable segment each
    (:meth:`share`).  Other payload arrays at or above the
    segment threshold ride ephemeral segments, and results/ledger deltas
    come back the same way; a block one worker queued goes on to the
    worker that drains it by segment name.  The parent adopts each
    delta into a ledger
    view — accounting vectors, queued payloads, the fault channel's
    advanced RNG/op state, the drain log — folds in isolation evidence,
    and hands the views to the barrier every executor shares
    (:meth:`Executor.run`), so fault plans, crash recovery,
    sanitizer audits, and every accounting counter stay bit-identical
    to serial.

    Task bodies must be module-level functions (workers resolve them
    by name) taking their inputs through ``HostTask.payload``; a
    closure body or an unpicklable payload raises
    :class:`UnshippableTaskError` before any body runs — whichever lane
    its host falls in, and however many lanes there are.
    Bodies must not write shared structures (worker writes die with
    the worker); declared outputs go through ``HostTask.apply``, which
    runs in the parent at the barrier.  The
    ``deep-unshippable-task-capture`` lint rule enforces this
    statically, in the body and in every helper it calls.

    On platforms without ``os.fork`` there is one lane, so every
    barrier runs its hosts in turn in the parent, as serial does (still
    correct, no speedup).
    :meth:`close` retires the pool and unlinks every resident segment.
    A pool is reusable only after a barrier that completed: a worker's
    death, a worker-side error or any exception raised in the parent
    mid-barrier (an interrupt, a signal handler's timeout, in its own
    lane's bodies too) kills the workers, reclaims every in-flight
    segment, and lets the next barrier fork fresh ones — a worker left
    holding an unread reply would answer the next barrier with it.  So
    does an interrupt between the rounds of a stepped phase, whose
    workers hold live bodies; a body's own failure leaves the pool, and
    the next command ends the phase in every worker.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        check_isolation: bool = False,
        monitor: "isolation.IsolationMonitor | None" = None,
    ):
        super().__init__(max_workers, check_isolation, monitor)
        #: Live pool workers: ``{"pid", "cmd_w", "reply_r"}`` each.
        self._workers: list[dict[str, int]] = []
        #: Published residents by name: ``{"gen", "obj", "blob",
        #: "manifest", "segments", "arrays", "array_ids"}``.
        self._residents: dict[str, dict[str, Any]] = {}
        _live_pools.add(self)

    # ------------------------------------------------------------------
    # Graph residency
    # ------------------------------------------------------------------
    def publish(self, name: str, obj: Any) -> Any:
        """Export ``obj`` into shared segments and install it pool-wide.

        Idempotent per object identity.  Another object published
        under an existing name bumps the generation, unlinks the old
        segments, and re-installs in every live worker (crash replays
        rebuild phase outputs, so names are stable but objects are
        not).
        """
        if self._width(2) == 1:
            # One lane at most: no worker will ever map a segment.
            return obj
        entry = self._residents.get(name)
        if entry is None or entry["blob"] is None or entry["obj"] is not obj:
            self._export(name, obj, writable=False)
        return obj

    def share(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Copy ``arr`` into a segment of its own, whatever its size,
        that every worker maps writable; return the parent's writable
        mapping of it (``arr`` itself on one lane).  Sharing a name
        again replaces its resident, as :meth:`publish` does."""
        if self._width(2) == 1:
            return arr
        return self._export(name, arr, writable=True)["obj"]

    def _export(self, name: str, obj: Any, writable: bool) -> dict[str, Any]:
        """Export ``obj`` as the resident ``name``, one generation past
        the one it replaces (whose segments are unlinked), and install
        it in every live worker."""
        entry = self._residents.get(name)
        gen = entry["gen"] + 1 if entry is not None else 0
        if entry is not None:
            residency.unlink_resident(entry)
        exported = residency.export_resident(obj, gen, writable)
        self._residents[name] = exported
        if self._workers:
            self._broadcast(residency.resident_frame(name, exported))
        return exported

    def _broadcast(self, frame: bytes) -> None:
        """Send one command to every (idle) worker."""
        for worker in self._workers:
            try:
                _write_frame(worker["cmd_w"], frame)
            except OSError:
                # A worker died idle; retire the pool (residents stay
                # valid — the parent still owns their segments) and let
                # the next barrier respawn and replay them.
                self._destroy_pool()
                return

    def end_run(self) -> None:
        """Unlink every resident segment and have every lane drop its
        recompute caches — the parent's included — and every worker its
        mappings; the workers stay."""
        for entry in self._residents.values():
            residency.unlink_resident(entry)
        self._residents.clear()
        for cache in _worker_caches:
            cache.clear()
        self._broadcast(pickle.dumps(("forget",)))

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
            try:
                os.close(cmd_w)
                os.close(reply_r)
                # Drop the inherited parent side of every pool: a
                # worker's death must yield EOF in the parent, and the
                # parent's in every worker, whichever pool forked later.
                for pool in list(_live_pools):
                    pool._disown()
                _pool_worker_main(cmd_r, reply_w)
            except BaseException as exc:  # noqa: BLE001 — worker must exit
                # Its last words, where the parent reads replies: a
                # barrier's failure names the exception.
                _write_frame(reply_w, pickle.dumps(
                    ("died", f"{type(exc).__name__}: {exc}")
                ))
            finally:
                os._exit(1)
        os.close(cmd_r)
        os.close(reply_w)
        worker = {"pid": pid, "cmd_w": cmd_w, "reply_r": reply_r}
        self._workers.append(worker)
        # Replay every published resident into the fresh worker.
        for name, entry in self._residents.items():
            if entry["blob"] is None:
                entry = residency.export_resident(
                    entry["obj"], entry["gen"] + 1, entry["writable"]
                )
                self._residents[name] = entry
            _write_frame(worker["cmd_w"], residency.resident_frame(name, entry))

    def _disown(self) -> None:
        """In a freshly forked child: close the copied parent-side pipe
        ends and forget the pool, whose workers and segments are the
        parent's to retire and unlink."""
        for worker in self._workers:
            os.close(worker["cmd_w"])
            os.close(worker["reply_r"])
        self._workers = []
        self._residents = {}

    def _destroy_pool(
        self, graceful: bool = False, listen: bool = False
    ) -> dict[int, str]:
        """Retire every worker; returns how each ended, by pid: its exit
        code and, when ``listen``, the last words of one an exception
        killed (:func:`_last_words`).  Only a caller whose reads of the
        reply pipes all completed may listen.

        ``graceful`` sends ``exit`` and lets idle workers leave on
        their own; otherwise workers are SIGKILLed first — a worker
        blocked writing a reply into a full pipe nobody will read must
        not deadlock the reaper.
        """
        ended: dict[int, str] = {}
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
                how = f"exit {os.waitstatus_to_exitcode(status)}"
            # repro-lint: disable-next-line=swallowed-error -- already reaped elsewhere (e.g. a test harness); exit code defaults below
            except ChildProcessError:  # pragma: no cover
                how = "exit -1"
            if listen:
                how += _last_words(worker["reply_r"])
            ended[worker["pid"]] = how
            os.close(worker["reply_r"])
        self._workers = []
        return ended

    def close(self) -> None:
        """Retire the pool and unlink every resident segment."""
        self._destroy_pool(graceful=True)
        self.end_run()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        # repro-lint: disable-next-line=swallowed-error -- interpreter teardown; best-effort release only
        except Exception:
            pass

    def _width(self, num_tasks: int) -> int:
        """How many lanes a barrier of ``num_tasks`` hosts runs on: the
        parent, plus one resident worker per further lane."""
        if not _CAN_FORK:  # pragma: no cover - non-POSIX platform
            return 1
        lanes = self._max_workers
        if lanes is None:
            # One lane per core this process may run on (affinity and
            # cgroup pinning shrink that below ``os.cpu_count()``), the
            # parent's included: it runs the first chunk itself rather
            # than wait on a worker, so on a single-core box nothing
            # forks at all.  Pass max_workers explicitly to exercise
            # multi-worker paths regardless of core count.
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:  # pragma: no cover - platform without an affinity API
                cpus = os.cpu_count() or 1
            lanes = min(num_tasks, cpus)
        return max(1, min(lanes, num_tasks))

    def _lanes(self, num_tasks: int) -> list[list[int]]:
        """Contiguous runs of task indices, one per lane: the parent
        runs the first, a resident worker each of the others."""
        return [
            chunk.tolist()
            for chunk in np.array_split(
                np.arange(num_tasks), self._width(num_tasks)
            )
        ]

    def _outcomes(
        self, stats: PhaseStats, tasks: list[HostTask]
    ) -> Generator[_Outcome, None, None]:
        chunks = self._lanes(len(tasks))
        phase_name = getattr(stats, "name", "")
        specs = self._specs(stats, tasks, chunks, phase_name)
        if not specs:
            # One lane: nothing forks, and the hosts run in turn.
            return _in_turn(stats, tasks)

        def own_lane(outcomes: list[_Outcome]) -> None:
            # Plain views on the shared communicator, as threads run them.
            for i in chunks[0]:
                view = HostView(stats, tasks[i].host, tasks[i].drains)
                outcomes.append((view, *_run_private(
                    tasks[i], view, self.monitor, phase_name
                )))

        return _handed_over(self._exchange(
            stats, tasks, chunks, [("run", blob) for blob in specs],
            own_lane, phase_name,
        ))

    def _step_outcomes(
        self, rounds: _Rounds, reply: Any
    ) -> Generator[_Outcome, None, None]:
        """One round of a stepped phase across the lanes, fixed by its
        first round.  That round ships the spec (``rounds``); a worker
        keeps its hosts' bodies live after it, so every later round
        ships only ``reply`` (``step``) and the workers' round deltas."""
        stats, tasks = rounds.stats, rounds.tasks
        phase_name = getattr(stats, "name", "")
        if rounds.round == 0:
            rounds.lanes = self._lanes(len(tasks))
            blobs = self._specs(stats, tasks, rounds.lanes, phase_name)
            kind = "rounds"
        else:
            blobs = self._dump_all(
                [reply] * (len(rounds.lanes) - 1), phase_name, "round reply"
            )
            kind = "step"
        if not blobs:
            return _steps_in_turn(rounds, tasks, reply)

        def own_lane(outcomes: list[_Outcome]) -> None:
            for i in rounds.lanes[0]:
                body = rounds.body(tasks[i])
                outcomes.append(
                    (body.view, *body.step(reply, self.monitor, phase_name))
                )

        return _handed_over(self._exchange(
            stats, tasks, rounds.lanes, [(kind, blob) for blob in blobs],
            own_lane, phase_name,
        ))

    def _abandon_rounds(self) -> None:
        # The workers hold live bodies and wait for their next round;
        # none may serve a later barrier with them.
        self._destroy_pool()
        residency.sweep_family_segments()

    def _exchange(
        self,
        stats: PhaseStats,
        tasks: list[HostTask],
        chunks: list[list[int]],
        commands: list[tuple[str, bytes]],
        own_lane: Callable[[list[_Outcome]], None],
        phase_name: str,
    ) -> list[_Outcome]:
        """One trip of a barrier (or round) through the lanes: write
        each worker its command, run the parent's chunk (``own_lane``
        appends its outcomes), read the replies, and adopt the workers'
        deltas behind the parent's outcomes — all in host order."""
        outcomes: list[_Outcome] = []
        # From the first command write to the last delta load the
        # barrier is in flight, and a pool is reusable only after one
        # that completed.  Whatever leaves this block — a worker's death,
        # a worker-side error, a KeyboardInterrupt or a signal handler's
        # timeout in the parent, in its own lane's bodies too — leaves no
        # pool behind: a worker kept with an unread reply would answer
        # the next barrier with it, and one blocked writing that reply
        # would never take ``exit``.
        try:
            self._ensure_pool(len(commands))
            workers = self._workers[: len(commands)]
            sent = []
            for worker, command in zip(workers, commands):
                try:
                    _write_frame(
                        worker["cmd_w"],
                        pickle.dumps(command, protocol=pickle.HIGHEST_PROTOCOL),
                    )
                    sent.append(True)
                except OSError:  # the worker is gone (EPIPE)
                    sent.append(False)
            if all(sent):
                # The parent's lane, while the workers run theirs.
                own_lane(outcomes)
            replies: list[tuple[str, Any] | None] = []
            for worker, delivered in zip(workers, sent):
                frame = _read_frame(worker["reply_r"]) if delivered else None
                replies.append(None if frame is None else pickle.loads(frame))
            if not all(r is not None and r[0] == "ok" for r in replies):
                raise self._barrier_failure(
                    phase_name, tasks, chunks[1:], workers, replies
                )
            # Chunks are contiguous and in task order, so are the deltas.
            deltas = [_load_delta(blobs) for r in replies for blobs in r[1]]
        except BaseException:
            # No delta that was loaded survives this frame, so no segment
            # a reply names has an owner here; the family sweep unlinks
            # them all, with whatever a dead worker never consumed (spec
            # segments, a half-shipped reply).
            for view, _, _ in outcomes:
                view.release()
            self._destroy_pool()
            residency.sweep_family_segments()
            raise
        for task, delta in zip(tasks[len(chunks[0]):], deltas):
            # All lanes ran (as with threads), so all evidence counts, a
            # later-discarded host's included; the parent's lane recorded
            # its own first, and deltas arrive in host order, which keeps
            # the merged log deterministic.
            self._merge_evidence(delta["monitor"])
            view = _ShippedHostView(stats, task.host)
            view.adopt(delta)
            outcomes.append((view, delta["result"], delta["exc"]))
        return outcomes

    def _specs(
        self,
        stats: PhaseStats,
        tasks: list[HostTask],
        chunks: list[list[int]],
        phase_name: str,
    ) -> list[bytes]:
        """Check every task of a barrier; return the dispatch spec of
        each worker's chunk (``chunks[1:]``; none for a single lane).

        Raises :class:`UnshippableTaskError` — before any body runs and
        any worker forks, with every segment created so far reclaimed —
        when a body is not a module-level function or a payload does not
        pickle.  The parent's own chunk ships nothing, so its payloads
        pickle into a null sink (:func:`residency.check_pickles`): a
        barrier that runs on one core is refused where it would be on
        many.
        """
        for task in tasks:
            if not _fn_shippable(task.fn):
                raise UnshippableTaskError(
                    f"host {task.host} task {task.label!r}: body {task.fn!r} "
                    "is not a module-level function (pool workers resolve "
                    "bodies by name); pass its inputs through payload="
                )
        comm = stats.comm
        injector = comm.injector
        inj_state = injector.export_live_state() if injector is not None else None
        specs = [
            {
                "phase": phase_name,
                "num_hosts": comm.num_hosts,
                "buffer_size": comm.buffer_size,
                "max_retries": comm.max_retries,
                "monitor": self.monitor is not None,
                "injector": inj_state,
                # Only the declared inbox ships.  ``apply`` stays
                # behind: it runs in the parent, at the barrier, and is
                # typically a closure.
                "tasks": [
                    {
                        "task": replace(tasks[i], apply=None),
                        "queues": comm.snapshot_queues(
                            tasks[i].host, tasks[i].drains
                        ),
                    }
                    for i in chunk
                ],
            }
            for chunk in chunks[1:]
        ]
        return self._dump_all(
            specs, phase_name, "dispatch spec",
            parent_keeps=[tasks[i].payload for i in chunks[0]],
        )

    def _dump_all(
        self,
        objs: list[Any],
        phase_name: str,
        what: str,
        parent_keeps: Any = None,
    ) -> list[bytes]:
        """Pickle each of ``objs`` for one worker (residents by
        reference, other large arrays on ephemeral segments), once
        ``parent_keeps`` — what the parent's lane runs on — is known to
        pickle too.  A failure reclaims every segment made and raises
        :class:`UnshippableTaskError` (an interrupt, itself)."""
        pids = residency.spec_pids(self._residents)
        blobs: list[bytes] = []
        made: list[Any] = []
        try:
            residency.check_pickles(parent_keeps, pids)
            for obj in objs:
                blob, segments = residency.dumps_with_segments(obj, pids)
                blobs.append(blob)
                made.extend(segments)
        except BaseException as perr:  # noqa: BLE001 — reclaim, then re-raise
            for seg in made:
                residency.discard_untracked_segment(seg)
            if not isinstance(perr, Exception):
                raise  # an interrupt is not a verdict on the payload
            raise UnshippableTaskError(
                f"phase {phase_name!r}: {what} does not pickle "
                f"({perr}); task payloads must pickle"
            ) from perr
        return blobs

    def _barrier_failure(
        self,
        phase_name: str,
        tasks: list[HostTask],
        chunks: list[list[int]],
        workers: list[dict[str, int]],
        replies: "list[tuple[str, Any] | None]",
    ) -> Exception:
        """Retire the pool of a barrier that did not complete and say why."""
        ended = self._destroy_pool(listen=True)
        stale = [r[1] for r in replies if r is not None and r[0] == "stale"]
        if stale:
            return UnshippableTaskError(
                f"phase {phase_name!r}: dispatch spec does not load in a "
                f"pool worker ({'; '.join(stale)}); a worker's heap is as old "
                "as its pool's first barrier, so a class or function defined "
                "since is unknown to it.  The pool has been retired; the next "
                "barrier forks workers that know it"
            )
        errors = [r[1] for r in replies if r is not None and r[0] == "error"]
        if errors:
            return RuntimeError(
                f"process executor worker failed: {'; '.join(errors)}"
            )
        # A worker that died after reading its spec replied with its last
        # words; one gone before that left them in its pipe.
        lost = [
            (chunk, worker, reply)
            for chunk, worker, reply in zip(chunks, workers, replies)
            if reply is None or reply[0] == "died"
        ]
        parts = [
            f"hosts {[tasks[i].host for i in chunk]} "
            f"({ended.get(worker['pid'], 'exit -1')}"
            f"{'' if reply is None else ': ' + reply[1]})"
            for chunk, worker, reply in lost
        ]
        return WorkerLostError(
            "process executor worker(s) died without shipping their "
            f"deltas: {', '.join(parts)}",
            hosts=[tasks[i].host for chunk, _, _ in lost for i in chunk],
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
