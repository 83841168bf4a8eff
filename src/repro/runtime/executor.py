"""Pluggable per-host execution engine for the five CuSP phases.

Phase bodies used to drive hosts with inline ``for h in range(num_hosts)``
loops over shared accounting state, which welds the streaming algorithm
to single-threaded execution.  This module separates *what a host
computes* from *how the hosts are driven*:

* :class:`HostTask` — one host's closure over a phase's per-host work,
  expressed against a :class:`HostView` (send / recv / disk / compute
  charges);
* :class:`Executor` — the driving strategy.  Wherever a body runs, it
  records onto a *private* :class:`~repro.runtime.comm.CommLedger`
  (plus private disk/compute accumulators and a redirected fault-event
  sink), and the barrier that folds the views back in **host order**
  is one piece of code, :meth:`Executor.run`.  Executors differ only in
  how the bodies run (``_outcomes``).  :class:`SerialExecutor` — the
  deterministic reference — keeps one host in flight: host ``h+1``'s
  body starts only after host ``h`` has merged and applied, which is
  the old inline-loop semantics by construction.
  :class:`ParallelExecutor` (threads, here) and
  :class:`~repro.runtime.pool.ProcessExecutor` (:mod:`repro.runtime.pool`:
  the calling process runs the first chunk of a barrier's hosts
  itself, a resident pool of forked workers the other chunks) run
  hosts concurrently.

The task-payload seam: because a worker's writes die with the worker,
task bodies must not mutate shared structures.  A :class:`HostTask` may
therefore declare a picklable per-host ``payload`` (passed to ``fn`` as
a second argument) and an ``apply`` callback that the executor runs *in
the parent, at the barrier, in host order* with the body's result —
that is where shared-state writes go.  Under serial that is right
after each body, before the next one starts.  The process pool
resolves bodies by name, so there a body must be a module-level
function with every input in ``payload``; anything else raises
:class:`UnshippableTaskError` before any body runs, even one the
parent's own lane would have run.  The queue tags a body
drains are declared the same way (``drains``): a worker receives that
part of its host's inbox only, and a view refuses any other tag with
:class:`UndeclaredDrainError` under every executor.

Determinism argument (why concurrent hosts are bit-identical to serial):

1. *Accounting*: merge adds each host's private vectors into its own row
   of the shared matrices — addition order across rows is irrelevant,
   and within a row the ledger preserved the host's own send order.
   A direct ``Communicator.send`` is a ledger merged at once, so there
   is no second way to charge a send.
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
   fully, the raising host's partial ledger merges as-is, later hosts'
   ledgers are discarded along with any crash they fired (serial never
   runs them) — and re-raises.  Phase bodies are replay-safe (fresh
   state per attempt), so the discarded extra work of concurrent hosts
   is unobservable.

A phase whose hosts meet at round boundaries — the masters rounds of a
history-sensitive rule — runs as *stepped* tasks through
:meth:`Executor.run_rounds`: each body is a generator, called once for
the whole phase, that yields at every round boundary.  A round merges
like a barrier; in between, the calling process reduces the round's
yields and sends the result back into every body.  A body keeps its
state from round to round, in a pool worker too, so a round ships only
what the boundary reduces.

Work whose *algorithm* is cross-host sequential — a stateful edge rule
where host ``h+1`` must score against the state host ``h`` just updated —
goes through :meth:`Executor.chain`, which every executor runs with one
host in flight, as serial runs a barrier: bit-identity forbids
parallelism there, and pretending otherwise would change the partition.

Collectives (``allreduce_*``/``allgather``/``barrier``) are phase-global
and must be issued between task submissions, never inside a mapped task.
"""

from __future__ import annotations

import functools
import inspect
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from ..analysis import isolation
from .colfab import ColumnSchema, MessageBatch, ReceivedBatch

if TYPE_CHECKING:
    import numpy as np

    from .stats import PhaseStats

__all__ = [
    "HostTask",
    "HostView",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProcessExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
    "UnshippableTaskError",
    "UndeclaredDrainError",
    "WorkerLostError",
]


class _NoPayload:
    """Type of :data:`_NO_PAYLOAD`.  Pickles by reference, so a task
    shipped to a pool worker still carries the very sentinel."""

    def __reduce__(self) -> str:
        return "_NO_PAYLOAD"


#: Sentinel distinguishing "no declared payload" from ``payload=None``.
_NO_PAYLOAD = _NoPayload()


class UnshippableTaskError(TypeError):
    """A barrier the process pool cannot ship to its resident workers:
    a body that is not a module-level function (workers resolve bodies
    by name) or a dispatch spec — a ``payload`` — that does not pickle,
    both raised in the parent before anything is dispatched; or a spec
    that names a class or function defined since the workers forked,
    which retires the pool so that the next barrier forks workers that
    know it."""


class UndeclaredDrainError(RuntimeError):
    """A task body drained a queue tag its :class:`HostTask` did not
    declare in ``drains``.  Raised by the view under every executor: the
    process pool ships a worker only the declared tags of its host's
    inbox, so an undeclared drain there would see a silently empty
    queue."""


class WorkerLostError(RuntimeError):
    """A pool worker died before it shipped its hosts' work: the barrier
    or round it was in did not complete, and the pool is retired.
    :attr:`hosts` are the hosts whose work died with it."""

    def __init__(self, message: str, hosts: Sequence[int] = ()):
        super().__init__(message)
        self.hosts = tuple(hosts)

    def __reduce__(self) -> tuple:
        return type(self), (str(self), self.hosts)


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
    there, never in ``fn``.  ``drains`` is the declared inbox: the queue
    tags ``fn`` may drain through the view (``recv_all`` /
    ``recv_all_batch``); any other tag raises
    :class:`UndeclaredDrainError`, and the process pool ships a worker
    those tags of the host's pending queues and nothing else.
    """

    host: int
    fn: Callable[..., Any]
    label: str = ""
    payload: Any = _NO_PAYLOAD
    apply: Callable[[Any], Any] | None = None
    drains: tuple[str, ...] = ()


class HostView:
    """What one host's task sees of the cluster.

    Every charge accumulates privately — sends on a
    :class:`~repro.runtime.comm.CommLedger`, disk and compute in two
    scalars — and :meth:`merge` folds them into the shared state at the
    barrier.  Phase code is written against this class only.

    Creating the view redirects the host's fault channel to the private
    ledger so events drawn by a concurrently-running host can be merged
    (or discarded) deterministically.
    """

    def __init__(self, stats: PhaseStats, host: int,
                 drains: tuple[str, ...] = ()):
        self._stats = stats
        self.host = int(host)
        self._drains = drains
        self.begin()

    def begin(self) -> None:
        """Record from here on afresh: a new private ledger, no charges,
        the host's fault channel logging to the ledger.  A view records
        one barrier; a stepped task's view (:meth:`Executor.run_rounds`)
        begins again each round, its previous round merged."""
        comm = self._stats.comm
        self.ledger = comm.ledger(self.host)
        self.disk_bytes = 0.0
        self.compute_units = 0.0
        self._channel = None
        if comm.injector is not None:
            self._channel = comm.injector.channel(self.host)
            self._channel.events_out = self.ledger.fault_events

    def send(self, dst: int, payload: Any, tag: str = "default",
             logical_messages: int = 1, nbytes: int | None = None,
             coalesce: bool = False) -> None:
        self.ledger.send(
            dst, payload, tag=tag, logical_messages=logical_messages,
            nbytes=nbytes, coalesce=coalesce,
        )

    def _check_drain(self, tag: str) -> None:
        if tag not in self._drains:
            raise UndeclaredDrainError(
                f"host {self.host} drained tag {tag!r}, which its task "
                f"does not declare (HostTask.drains={self._drains!r})"
            )

    def recv_all(self, tag: str = "default") -> list[tuple[int, Any]]:
        """Drain this host's own queue for ``tag``, which the task must
        have declared in ``HostTask.drains``.  The view reads the shared
        communicator: queues are only ever appended to at merge
        barriers, and each host drains only its own."""
        self._check_drain(tag)
        return self._stats.comm.recv_all(self.host, tag)

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
        self._check_drain(tag)
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
        """Discard this host's private charges (work serial never ran),
        its queued blocks first: the raised failure's traceback keeps
        this view alive until the next cycle collection."""
        self.ledger.queued = []
        injector = self._stats.comm.injector
        if injector is not None and self._channel is not None:
            self._channel.fired.clear()
            self._channel.events_out = injector.events


def _invoke(task: HostTask, view: HostView) -> Any:
    """Call a task body, passing its declared payload when it has one."""
    if task.payload is _NO_PAYLOAD:
        return task.fn(view)
    return task.fn(view, task.payload)


def _run_private(
    task: HostTask,
    view: HostView,
    monitor: isolation.IsolationMonitor | None,
    phase_name: str,
    step: Callable[[], Any] | None = None,
) -> tuple[Any, Exception | None]:
    """Run one body against its private view, off the barrier.

    What every executor runs, wherever the body runs: the body — or,
    for a stepped task, ``step``, its next round — under the isolation
    monitor when one is attached.  A failure is captured, not raised —
    the barrier decides, in host order, whose failure counts.
    """
    guard = (
        monitor.task(view.host, phase_name, task.label)
        if monitor is not None
        else nullcontext()
    )
    try:
        with guard:
            result = _invoke(task, view) if step is None else step()
        return result, None
    except Exception as exc:  # noqa: BLE001 — re-raised at the barrier
        return None, exc


class _Stepped:
    """A stepped task's body as the process that steps it holds it: the
    generator and the view it records on, kept from round to round."""

    def __init__(
        self, stats: PhaseStats, task: HostTask,
        view_type: Callable[..., HostView] = HostView,
    ):
        self.task = task
        self.view = view_type(stats, task.host, task.drains)
        self._body: Generator[Any, Any, Any] | None = None

    def step(
        self,
        reply: Any,
        monitor: isolation.IsolationMonitor | None,
        phase_name: str,
    ) -> tuple[Any, Exception | None]:
        """Run the body to its next ``yield`` (the first round calls
        it), sending in ``reply``; the result is ``(ended, value)``."""
        if self._body is not None:
            self.view.begin()
        return _run_private(
            self.task, self.view, monitor, phase_name,
            functools.partial(self._advance, reply),
        )

    def _advance(self, reply: Any) -> tuple[bool, Any]:
        if self._body is None:
            self._body = _invoke(self.task, self.view)
            reply = None
        try:
            return False, self._body.send(reply)
        except StopIteration as stop:
            return True, stop.value

    def close(self) -> None:
        # A body still running (a thread an interrupt left behind)
        # finishes its step on its own and dies with its last reference.
        if self._body is not None and not self._body.gi_running:
            self._body.close()


class _Rounds:
    """One stepped phase as the calling process drives it."""

    def __init__(self, stats: PhaseStats, tasks: list[HostTask]):
        self.stats = stats
        #: The phase's tasks, in host order.
        self.tasks = tasks
        #: Rounds completed so far.
        self.round = 0
        #: The bodies this process steps, by host.
        self.bodies: dict[int, _Stepped] = {}
        #: Task indices per lane, fixed by the first round (process pool).
        self.lanes: list[list[int]] = []

    def body(self, task: HostTask) -> _Stepped:
        body = self.bodies.get(task.host)
        if body is None:
            body = self.bodies[task.host] = _Stepped(self.stats, task)
        return body


#: One host's ``(view, result, exception)`` as the barrier receives it.
_Outcome = tuple[HostView, Any, "Exception | None"]


def _in_turn(
    stats: PhaseStats, tasks: Sequence[HostTask]
) -> Generator[_Outcome, None, None]:
    """One host in flight: a body runs only when the barrier asks for
    its outcome, which is after every earlier host has merged and
    applied.  Closing the generator runs no further body."""
    for task in tasks:
        view = HostView(stats, task.host, task.drains)
        yield (view, *_run_private(task, view, None, ""))


def _steps_in_turn(
    rounds: _Rounds, tasks: Sequence[HostTask], reply: Any
) -> Generator[_Outcome, None, None]:
    """:func:`_in_turn` for one round of a stepped phase."""
    for task in tasks:
        body = rounds.body(task)
        yield (body.view, *body.step(reply, None, ""))


def _handed_over(outcomes: list[_Outcome]) -> Generator[_Outcome, None, None]:
    """Hand finished outcomes to the barrier one at a time; once it
    stops taking them, release the views it never took (work serial
    would not have run)."""
    taken = 0
    try:
        for outcome in outcomes:
            taken += 1
            yield outcome
    finally:
        for view, _, _ in outcomes[taken:]:
            view.release()


def _merge_in_order(
    tasks: Sequence[HostTask], outcomes: Generator[_Outcome, None, None]
) -> list[Any]:
    """Fold each task's view into the shared state in ``tasks`` order:
    ``view.merge()``, then the task's ``apply``, so applied outputs land
    in the order a host-by-host sweep writes them.  The first failure
    wins: its partial ledger merges as-is and it is re-raised; closing
    ``outcomes`` discards everything after it."""
    results: list[Any] = []
    with closing(outcomes):
        for task, (view, result, exc) in zip(tasks, outcomes):
            view.merge()
            if exc is not None:
                raise exc
            if task.apply is not None:
                result = task.apply(result)
            results.append(result)
    return results


def _host_order(tasks: list[HostTask]) -> list[int]:
    """Indices of ``tasks`` in host order; one task per host."""
    hosts = [t.host for t in tasks]
    if len(set(hosts)) != len(hosts):
        raise ValueError("one task per host required")
    return sorted(range(len(tasks)), key=lambda i: tasks[i].host)


class Executor:
    """Strategy for driving a phase's per-host tasks.

    The base class is the whole barrier; an executor only says how a
    barrier's bodies run (:meth:`_outcomes`).  Here they run one at a
    time, in the parent.
    """

    name = "abstract"

    def __init__(
        self,
        max_workers: int | None = None,
        check_isolation: bool = False,
        monitor: "isolation.IsolationMonitor | None" = None,
    ):
        """``max_workers`` caps how many hosts run at once.
        ``check_isolation=True`` attaches a fresh
        :class:`~repro.analysis.isolation.IsolationMonitor` (or pass
        your own via ``monitor=``): every task a barrier overlaps then
        runs under a thread-local ownership context, any cross-host
        access raises
        :class:`~repro.analysis.isolation.IsolationViolation`, and the
        monitor logs each sanctioned (host, phase, op, attribute)
        access.  Off by default — the guards cost a few percent on
        charge-heavy phases."""
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        if monitor is None and check_isolation:
            monitor = isolation.IsolationMonitor()
        self.monitor = monitor

    def publish(self, name: str, obj: Any) -> Any:
        """Register a barrier input under ``name`` for zero-copy reuse.

        The pooled process executor exports the object's large arrays
        into named shared-memory segments that its resident workers map
        as zero-copy, read-only NumPy views, so task payloads
        referencing the object (or one of those arrays) ship a
        persistent id, not the data.  Every other executor shares the
        parent's address space already, so the default is the identity.

        A published object must not be mutated (phases publish *after*
        checkpoint roundtrips, which is also when an object becomes
        immutable); publishing another object under the name replaces
        it.  Call it between barriers only.
        """
        return obj

    def share(self, name: str, arr: np.ndarray) -> np.ndarray:
        """An array the bodies of every lane write in place, registered
        under ``name``; use the returned array from then on.

        The pooled process executor copies ``arr`` into a shared-memory
        segment that its workers map writable and returns the parent's
        own mapping of it; every other executor shares the parent's
        address space, so the default is ``arr`` itself.  Bodies must
        write disjoint ranges, and read a range only after the barrier
        or round boundary that follows its write.  Call it between
        barriers only.
        """
        return arr

    def end_run(self) -> None:
        """End one run (a ``CuSP.partition`` call): forget everything
        published during it, keep the engine.  Idempotent; call it
        between barriers only.  Every executor has this lifecycle —
        many runs, each ended here, then one :meth:`close` — and only
        the process pool has anything to forget."""

    def close(self) -> None:
        """Retire the engine (worker pool, threads) and whatever a run
        left published; idempotent, and the next barrier starts a fresh
        one."""

    def _outcomes(
        self, stats: PhaseStats, tasks: list[HostTask]
    ) -> Generator[_Outcome, None, None]:
        """Produce each task's ``(view, result, exception)``, tasks
        given and outcomes yielded in host order.  Nothing has merged
        before the barrier takes an outcome; whatever it does not take
        when closed must leave no trace."""
        return _in_turn(stats, tasks)

    def run(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        """Run independent per-host tasks; return results in task order.

        The one barrier: every host records on a private
        :class:`HostView` and the views merge in host order
        (:func:`_merge_in_order`).  Raises the first raising host's
        exception, in host order.
        """
        tasks = list(tasks)
        order = _host_order(tasks)
        ordered = [tasks[i] for i in order]
        # A single task has nothing to overlap with: it runs in turn,
        # in the parent, with no dispatch.
        outcomes = (
            self._outcomes(stats, ordered)
            if len(ordered) > 1
            else _in_turn(stats, ordered)
        )
        results: list[Any] = [None] * len(tasks)
        for i, result in zip(order, _merge_in_order(ordered, outcomes)):
            results[i] = result
        return results

    def run_rounds(
        self,
        stats: PhaseStats,
        tasks: Sequence[HostTask],
        boundary: Callable[[int, list[Any]], Any],
    ) -> Any:
        """Run stepped per-host tasks in lockstep rounds; return what
        the last round's ``boundary`` returned.

        A stepped task's body is a generator function, called once for
        the whole phase: it does one round of its host's work, then
        yields the round's value — or returns it after its last round.
        Each round merges like a barrier (views in host order, the
        first failure in host order raised), then ``boundary(r,
        values)`` runs in the calling process with the round's index
        and values in host order, and what it returns is what each
        body's ``yield`` evaluates to in the next round.  A body keeps
        its locals, and under the process pool its worker, from round
        to round: a round boundary moves only what ``boundary`` takes
        and returns.  Serial steps the hosts in turn, as it runs a
        barrier.  Every body must take the same number of rounds;
        stepped tasks declare no ``apply`` and no ``drains``.
        """
        ordered = [tasks[i] for i in _host_order(list(tasks))]
        if not ordered:
            raise ValueError("run_rounds() needs at least one task")
        for task in ordered:
            if not inspect.isgeneratorfunction(task.fn):
                raise TypeError(
                    f"host {task.host} task {task.label!r}: a stepped body "
                    "must be a generator function"
                )
            if task.apply is not None or task.drains:
                raise ValueError(
                    f"host {task.host} task {task.label!r}: a stepped task "
                    "declares no apply and no drains"
                )
        rounds = _Rounds(stats, ordered)
        reply = None
        try:
            while True:
                outcomes = (
                    self._step_outcomes(rounds, reply)
                    if len(ordered) > 1
                    else _steps_in_turn(rounds, ordered, reply)
                )
                stepped = _merge_in_order(ordered, outcomes)
                ended = {done for done, _ in stepped}
                if len(ended) > 1:
                    raise RuntimeError(
                        "stepped tasks ended in different rounds; every "
                        "body must take the same number of rounds"
                    )
                reply = boundary(rounds.round, [value for _, value in stepped])
                if ended.pop():
                    return reply
                rounds.round += 1
        except BaseException as exc:
            if not isinstance(exc, Exception):
                # An interrupt between rounds (inside one, the pool has
                # seen to it): bodies may be live in other processes.
                self._abandon_rounds()
            raise
        finally:
            for body in rounds.bodies.values():
                body.close()

    def _step_outcomes(
        self, rounds: _Rounds, reply: Any
    ) -> Generator[_Outcome, None, None]:
        """:meth:`_outcomes` for one round of a stepped phase: run every
        body to its next ``yield``, sending in ``reply``."""
        return _steps_in_turn(rounds, rounds.tasks, reply)

    def _abandon_rounds(self) -> None:
        """Drop whatever a stepped phase that an interrupt left between
        rounds keeps outside the calling process (nothing, here)."""

    def chain(self, stats: PhaseStats, tasks: Sequence[HostTask]) -> list[Any]:
        """Run cross-host-*dependent* tasks in turn, in task order.

        Used when host h+1's algorithm reads state host h wrote (e.g.
        stateful streaming edge rules): host h+1's body starts after
        host h has merged and applied, under every executor by
        construction.  Not a barrier — it never enters :meth:`run`.
        """
        tasks = list(tasks)
        return _merge_in_order(tasks, _in_turn(stats, tasks))


class SerialExecutor(Executor):
    """Deterministic reference: every barrier with one host in flight."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()


class ParallelExecutor(Executor):
    """Thread pool over private per-host ledgers, merged in host order.

    NumPy kernels release the GIL, so per-host work genuinely overlaps.
    The pool is created lazily and reused across phases and runs, until
    :meth:`close`.
    """

    name = "parallel"

    _pool: ThreadPoolExecutor | None = None
    _pool_width = 0

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

    def _outcomes(
        self, stats: PhaseStats, tasks: list[HostTask]
    ) -> Generator[_Outcome, None, None]:
        views = [HostView(stats, t.host, t.drains) for t in tasks]
        pool = self._ensure_pool(len(tasks))
        phase_name = getattr(stats, "name", "")
        futures = [
            pool.submit(_run_private, t, v, self.monitor, phase_name)
            for t, v in zip(tasks, views)
        ]
        return _handed_over([(v, *f.result()) for v, f in zip(views, futures)])

    def _step_outcomes(
        self, rounds: _Rounds, reply: Any
    ) -> Generator[_Outcome, None, None]:
        bodies = [rounds.body(t) for t in rounds.tasks]
        pool = self._ensure_pool(len(bodies))
        phase_name = getattr(rounds.stats, "name", "")
        futures = [
            pool.submit(b.step, reply, self.monitor, phase_name)
            for b in bodies
        ]
        return _handed_over(
            [(b.view, *f.result()) for b, f in zip(bodies, futures)]
        )


# ProcessExecutor is built on the classes above, so its module imports
# this one; importing it back here, last, keeps every executor name
# resolvable from ``repro.runtime.executor``.
from .pool import ProcessExecutor  # noqa: E402

#: Executor name -> (class, attach the isolation monitor).  The
#: ``*-checked`` variants stay names rather than a flag: a flag would be
#: one more option on ``CuSP`` and the CLI, where a name is a table row.
_EXECUTORS: dict[str, tuple[Callable[..., Executor], bool]] = {
    "serial": (SerialExecutor, False),
    "parallel": (ParallelExecutor, False),
    # With the host-isolation race detector attached
    # (repro.analysis.isolation): same bit-identical results, plus a
    # proof that no task left its lane.
    "parallel-checked": (ParallelExecutor, True),
    "process": (ProcessExecutor, False),
    "process-checked": (ProcessExecutor, True),
}

EXECUTOR_NAMES = tuple(_EXECUTORS)


def make_executor(spec: str | Executor | None) -> Executor:
    """Resolve an executor from a name, ``None``, or an instance."""
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        if spec not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {spec!r}; expected one of {EXECUTOR_NAMES}"
            )
        cls, checked = _EXECUTORS[spec]
        return cls(check_isolation=True) if checked else cls()
    raise TypeError(f"cannot build an executor from {type(spec).__name__}")
