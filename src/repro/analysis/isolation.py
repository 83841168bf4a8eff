"""Dynamic host-isolation race detector (opt-in instrumentation).

The parallel execution engine's determinism argument assumes each
mapped :class:`~repro.runtime.executor.HostTask` touches only its own
host's state and records every charge on its private ledger, with the
shared :class:`~repro.runtime.comm.Communicator` mutated only on the
sanctioned barrier-merge path.  This module checks that assumption at
runtime instead of trusting it.

How it works
------------
An :class:`IsolationMonitor` is attached to a
:class:`~repro.runtime.executor.ParallelExecutor` (via
``ParallelExecutor(check_isolation=True)``).  While a mapped task runs,
the executor installs a thread-local :class:`TaskContext` naming the
(host, phase, label) the thread is working for; the runtime's shared
objects carry cheap guard hooks that consult that context:

* ``Communicator.send`` / collectives / ``merge_ledger`` raise
  :class:`IsolationViolation` when called from inside a mapped task —
  during parallel sections every charge must go through the ledger;
* ``Communicator.recv_all(dst)`` is allowed only for ``dst == ctx.host``
  (a host may drain its own queue; queues are appended to only at merge
  barriers);
* ``CommLedger`` operations and ``HostView`` charges raise when
  the executing thread's context names a different host — a task that
  somehow reached another host's ledger is a data race in waiting;
* ``PhaseStats.add_disk`` / ``add_compute`` raise inside a mapped task
  (they write shared per-host vectors, bypassing the ledger).

Every sanctioned access is recorded as an :class:`Access` with the
host's own logical op index, so equivalence suites can additionally
assert that the detector really observed the run.  Outside a monitored
run the hooks are a single module-attribute check
(``isolation._depth``), so the default path stays effectively free.

The barrier itself (the merge, ``chain()`` for cross-host sequential
work, serial execution) never runs under a task context, which is
exactly what makes the merge path sanctioned.  The process pool's
parent lane installs one on the main thread only while each of its
bodies runs, as a worker thread does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "Access",
    "IsolationMonitor",
    "IsolationViolation",
    "OwnedProxy",
    "TaskContext",
    "current_context",
    "guard_owned",
    "guard_shared",
]

#: Number of active monitored runs; hooks are no-ops while it is 0.
#: (An int check is the cheapest guard available without losing the
#: ability to nest/overlap monitored executors.)
_depth = 0
_depth_lock = threading.Lock()
_tls = threading.local()


class IsolationViolation(RuntimeError):
    """A host task touched state it does not own.

    Carries the offending (host, phase, attribute) so the message is
    actionable: *which* task, in *which* phase, reached *what*.
    """

    def __init__(
        self,
        message: str,
        host: int | None = None,
        phase: str | None = None,
        attribute: str | None = None,
    ):
        super().__init__(message)
        self.host = host
        self.phase = phase
        self.attribute = attribute

    def __reduce__(self) -> tuple:
        # Default exception pickling replays __init__ with the message
        # only, dropping the (host, phase, attribute) evidence; process
        # executor workers ship violations back to the parent's monitor.
        return (
            IsolationViolation,
            (self.args[0], self.host, self.phase, self.attribute),
        )


@dataclass(frozen=True)
class Access:
    """One sanctioned state access by a mapped host task."""

    host: int
    phase: str
    op_index: int
    attribute: str


@dataclass
class TaskContext:
    """What the current thread is doing, while inside a mapped task."""

    monitor: "IsolationMonitor"
    host: int
    phase: str
    label: str = ""
    op_index: int = 0


def current_context() -> TaskContext | None:
    """The executing thread's task context, if a monitored task is live."""
    if _depth == 0:
        return None
    return getattr(_tls, "ctx", None)


class IsolationMonitor:
    """Records per-task accesses and raises on cross-host ones.

    ``max_recorded`` bounds the in-memory access log (the total count
    keeps incrementing past it); violations always raise regardless.
    """

    def __init__(self, max_recorded: int = 100_000):
        self.max_recorded = max_recorded
        self.accesses: list[Access] = []
        self.num_accesses = 0
        self.violations: list[IsolationViolation] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Executor integration
    # ------------------------------------------------------------------
    def task(self, host: int, phase: str, label: str = "") -> "_TaskScope":
        """Context manager installing this thread's task context."""
        return _TaskScope(TaskContext(self, int(host), phase, label))

    # ------------------------------------------------------------------
    # Hook entry points (called from runtime guard hooks)
    # ------------------------------------------------------------------
    def note(self, ctx: TaskContext, attribute: str) -> None:
        """Record one sanctioned access on the context's op stream."""
        ctx.op_index += 1
        with self._lock:
            self.num_accesses += 1
            if len(self.accesses) < self.max_recorded:
                self.accesses.append(
                    Access(ctx.host, ctx.phase, ctx.op_index, attribute)
                )

    def violation(
        self, ctx: TaskContext, attribute: str, detail: str
    ) -> IsolationViolation:
        exc = IsolationViolation(
            f"host {ctx.host} task (phase {ctx.phase!r}"
            + (f", {ctx.label}" if ctx.label else "")
            + f", op {ctx.op_index + 1}) {detail} [attribute: {attribute}]",
            host=ctx.host,
            phase=ctx.phase,
            attribute=attribute,
        )
        with self._lock:
            self.violations.append(exc)
        return exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def accesses_for(self, host: int) -> list[Access]:
        with self._lock:
            return [a for a in self.accesses if a.host == host]

    def summary(self) -> str:
        return (
            f"{self.num_accesses} tracked access(es), "
            f"{len(self.violations)} violation(s)"
        )


class _TaskScope:
    """Installs/removes a thread's TaskContext and the global guard flag."""

    __slots__ = ("ctx", "_prev")

    def __init__(self, ctx: TaskContext):
        self.ctx = ctx
        self._prev: TaskContext | None = None

    def __enter__(self) -> TaskContext:
        global _depth
        self._prev = getattr(_tls, "ctx", None)
        _tls.ctx = self.ctx
        with _depth_lock:
            _depth += 1
        return self.ctx

    def __exit__(self, *exc_info: object) -> None:
        global _depth
        _tls.ctx = self._prev
        with _depth_lock:
            _depth -= 1


# ----------------------------------------------------------------------
# Guard hooks (called from repro.runtime; cheap no-ops when inactive)
# ----------------------------------------------------------------------
def guard_shared(attribute: str, detail: str | None = None) -> None:
    """Raise if called from inside a mapped task (shared-only path)."""
    ctx = current_context()
    if ctx is None:
        return
    raise ctx.monitor.violation(
        ctx, attribute,
        detail or f"mutated shared `{attribute}` bypassing its ledger",
    )


def guard_owned(owner_host: int, attribute: str) -> None:
    """Raise unless the calling task owns ``owner_host``'s state.

    Sanctioned accesses are recorded on the task's op stream; calls from
    unmonitored threads (serial execution, the merge barrier) pass.
    """
    ctx = current_context()
    if ctx is None:
        return
    if ctx.host != owner_host:
        raise ctx.monitor.violation(
            ctx, attribute,
            f"accessed host {owner_host}'s `{attribute}`",
        )
    ctx.monitor.note(ctx, attribute)


class OwnedProxy:
    """Access-tracking wrapper for one host's mutable state.

    Forwards every attribute read and write to the wrapped object,
    passing each through :func:`guard_owned` first — so any touch from
    a mapped task belonging to a *different* host raises
    :class:`IsolationViolation`, and sanctioned touches land in the
    monitor's access log with the host's logical op index.  Useful for
    wrapping per-host rule state (or anything else hosts close over)
    without that state knowing about the detector.
    """

    __slots__ = ("_obj", "_owner", "_name")

    def __init__(self, obj: object, owner_host: int, name: str | None = None):
        object.__setattr__(self, "_obj", obj)
        object.__setattr__(self, "_owner", int(owner_host))
        object.__setattr__(
            self, "_name", name or type(obj).__name__
        )

    def __getattr__(self, attribute: str) -> object:
        guard_owned(
            object.__getattribute__(self, "_owner"),
            f"{object.__getattribute__(self, '_name')}.{attribute}",
        )
        return getattr(object.__getattribute__(self, "_obj"), attribute)

    def __setattr__(self, attribute: str, value: object) -> None:
        guard_owned(
            object.__getattribute__(self, "_owner"),
            f"{object.__getattribute__(self, '_name')}.{attribute}",
        )
        setattr(object.__getattribute__(self, "_obj"), attribute, value)

    def __getitem__(self, key: object) -> object:
        guard_owned(
            object.__getattribute__(self, "_owner"),
            f"{object.__getattribute__(self, '_name')}[]",
        )
        return object.__getattribute__(self, "_obj")[key]

    def __setitem__(self, key: object, value: object) -> None:
        guard_owned(
            object.__getattribute__(self, "_owner"),
            f"{object.__getattribute__(self, '_name')}[]",
        )
        object.__getattribute__(self, "_obj")[key] = value

    def __repr__(self) -> str:
        return (
            f"OwnedProxy(host={object.__getattribute__(self, '_owner')}, "
            f"{object.__getattribute__(self, '_obj')!r})"
        )
