"""Deterministic fault injection for the simulated cluster.

CuSP's five phases assume a fault-free bulk-synchronous cluster; a
production streaming partitioner cannot.  This module provides the fault
model the recovery machinery in :mod:`repro.core.framework` is tested
against:

* **transient send failures** — a point-to-point send is NACKed at the
  sender and must be retried (with exponential backoff);
* **message drops** — a message is lost in flight and retransmitted
  after an ack timeout;
* **message duplication** — the network delivers a message twice; the
  receiver deduplicates by sequence number, but the wire carried it;
* **host crashes** — a host dies at a phase boundary (its phase output
  is never committed) or mid-phase (after a given number of accounting
  operations), and the run must replay from the last checkpoint;
* **slow hosts** — per-host compute-speed factors, generalizing the
  ``host_speeds`` straggler knob.

Fault decisions are keyed to **(host, logical-op-index)**, not to global
call order: every host slot owns a :class:`HostFaultChannel` with its own
operation counter and its own seeded :class:`numpy.random.Generator`
(derived from ``(plan.seed, phase attempt, host)``).  A planned mid-phase
crash of host ``h`` fires once *host h itself* has performed ``op_count``
accounting operations, and message-fault draws for sends originated by
``h`` come from ``h``'s private stream.  This makes the injected fault
sequence a pure function of the plan and each host's own deterministic
op sequence — identical under the serial executor and under the parallel
executor's thread pool, whatever the thread interleaving — which is what
makes the recovery guarantee testable: a faulty run must converge to the
same partition as the fault-free run, on every executor.

* **payload corruption** — a delivered message fails its per-block
  checksum at the receiver, which issues a re-request; the sender
  retransmits, so one corrupt event charges *two* retry messages (the
  re-request plus the retransmission);
* **torn checkpoint writes** — a planned stage of the durable
  checkpoint store is written truncated (simulating kill -9 mid-write);
  digest verification detects and repairs it
  (:class:`~repro.core.partition_io.PartitionCheckpoint`).

Functional payloads are never *delivered* corrupted: retries,
retransmissions, re-requests and duplicates are charged to the
byte/message accounting (and therefore to the simulated breakdown)
while delivery stays exactly-once, mirroring a reliable checksummed
transport over a lossy fabric.

The columnar fabric (:mod:`repro.runtime.colfab`) changes none of this:
a ``send_batch`` is exactly one
send on the channel, so it draws one fault decision and, on failure, is
retried and charged as one block, exactly as a per-payload ``send`` of
the same ``nbytes`` would be.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

#: One injected-fault log entry: ``("crash", phase, host)``,
#: ``("torn-checkpoint", phase, stage)``, ``("straggler", phase, host)``
#: or ``("send-failure" | "drop" | "duplicate" | "corrupt-payload",
#: phase, src, dst)``.
FaultEvent = tuple[str | int | None, ...]

#: Retry messages charged per event of each kind.  A corrupt payload is
#: detected by the receiver's block checksum, which sends a re-request
#: before the sender retransmits — two messages on the wire.
_RETRY_EVENT_WEIGHTS = {
    "send-failure": 1,
    "drop": 1,
    "duplicate": 1,
    "corrupt-payload": 2,
}


def retry_event_channels(events: Iterable[FaultEvent]) -> dict[tuple[int, int], int]:
    """Per-(src, dst) count of charged retry messages in ``events``.

    Every message-fault event is drawn immediately before its retry
    traffic is charged — one retransmission for ``send-failure``/
    ``drop``/``duplicate``, a re-request *plus* a retransmission for
    ``corrupt-payload`` — so for any window of the injector's event
    stream this weighted count must equal the retry messages charged on
    the same channels: the conservation law the contract sanitizer
    checks at every phase barrier.  Crash, straggler and
    torn-checkpoint events charge no wire traffic and are ignored.
    """
    counts: dict[tuple[int, int], int] = {}
    for event in events:
        weight = _RETRY_EVENT_WEIGHTS.get(event[0])  # type: ignore[arg-type]
        if weight is not None:
            key = (int(event[2]), int(event[3]))  # type: ignore[arg-type]
            counts[key] = counts.get(key, 0) + weight
    return counts


__all__ = [
    "FaultEvent",
    "retry_event_channels",
    "FaultPlan",
    "HostCrash",
    "FaultInjector",
    "HostFaultChannel",
    "RecoveryManager",
    "FaultReport",
    "FaultError",
    "HostCrashError",
    "SendRetriesExhausted",
    "UnrecoverableClusterError",
]


class FaultError(RuntimeError):
    """Base class for injected-fault failures."""


class HostCrashError(FaultError):
    """A simulated host died; the current phase must be replayed."""

    def __init__(self, host: int, phase: str | None):
        super().__init__(f"host {host} crashed during phase {phase!r}")
        self.host = int(host)
        self.phase = phase

    def __reduce__(self) -> tuple:
        # The default exception pickling replays __init__ with the
        # formatted message as its single argument, which does not match
        # this two-argument signature; crashes must survive the worker
        # process -> parent hop intact (host and phase drive recovery).
        return (HostCrashError, (self.host, self.phase))


class SendRetriesExhausted(FaultError):
    """A point-to-point send kept failing past the retry budget."""


class UnrecoverableClusterError(FaultError):
    """Recovery is impossible (no survivors, or retry budget exhausted)."""


@dataclass(frozen=True)
class HostCrash:
    """One planned host crash.

    ``phase`` is a phase name (e.g. ``"Edge Assignment"``) or an index
    into the run's phase order (0 = first phase opened).  ``op_count``
    selects the crash point: ``None`` crashes at the phase *boundary*
    (after the phase's work, before its output is committed); a positive
    integer crashes mid-phase, once *the crashing host itself* has
    recorded that many accounting operations (sends, compute/disk
    charges) in the phase.  Keying the crash point to the host's own
    logical op index — rather than global call order — keeps the crash
    deterministic under both the serial and the parallel executor.  A
    mid-phase crash whose host finishes the phase with fewer operations
    fires at that phase's boundary instead — a planned crash always
    happens.
    """

    host: int
    phase: str | int
    op_count: int | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-deterministic description of injected faults."""

    seed: int = 0
    #: Probability that one send attempt is NACKed at the sender.
    send_failure_rate: float = 0.0
    #: Probability that a sent message is lost in flight (retransmitted).
    drop_rate: float = 0.0
    #: Probability that a delivered message arrives twice on the wire.
    duplicate_rate: float = 0.0
    #: Probability that a delivered message fails its block checksum at
    #: the receiver (re-requested and retransmitted; never delivered).
    corrupt_rate: float = 0.0
    crashes: tuple[HostCrash, ...] = ()
    #: Per-host compute-speed factors (host -> factor, 0 < factor <= 1
    #: slows the host down; factors multiply any ``host_speeds`` setting).
    slow_hosts: Mapping[int, float] = field(default_factory=dict)
    #: Checkpoint stages (e.g. ``"masters"``) whose first durable write
    #: is torn — truncated mid-write as by kill -9 — once per run.
    torn_checkpoints: tuple[str, ...] = ()

    def validate(self) -> None:
        for name in (
            "send_failure_rate",
            "drop_rate",
            "duplicate_rate",
            "corrupt_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        for crash in self.crashes:
            if crash.host < 0:
                raise ValueError(f"crash host must be >= 0, got {crash.host}")
            if crash.op_count is not None and crash.op_count < 1:
                raise ValueError("crash op_count must be >= 1 or None")
            if isinstance(crash.phase, int) and crash.phase < 0:
                raise ValueError("crash phase index must be >= 0")
        for host, factor in self.slow_hosts.items():
            if int(host) < 0 or not float(factor) > 0:
                raise ValueError("slow_hosts needs host >= 0 and factor > 0")
        for stage in self.torn_checkpoints:
            if not isinstance(stage, str) or not stage:
                raise ValueError(
                    f"torn_checkpoints entries must be stage names, got {stage!r}"
                )

    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.send_failure_rate == 0.0
            and self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.corrupt_rate == 0.0
            and not self.crashes
            and not self.slow_hosts
            and not self.torn_checkpoints
        )

    # ------------------------------------------------------------------
    # Parsing (CLI --inject-faults)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a plan from a CLI spec.

        Three forms are accepted:

        * ``@plan.json`` — read a JSON document from the named file;
        * ``{...}`` — an inline JSON document with the field names of
          this class (``crashes`` is a list of ``{"host", "phase",
          "op_count"}`` objects, ``slow_hosts`` maps host -> factor);
        * a compact ``key=value`` list:
          ``seed=42,send-fail=0.05,drop=0.01,dup=0.01,corrupt=0.01,``
          ``crash=1@2,crash=0@3:25,slow=3:0.5,torn=masters`` where
          ``crash=HOST@PHASE[:OPS]`` uses a phase index,
          ``slow=HOST:FACTOR`` slows one host and ``torn=STAGE`` tears
          one checkpoint stage's write.
        """
        spec = spec.strip()
        if spec.startswith("@"):
            path = spec[1:]
            try:
                with open(path) as f:
                    text = f.read()
            except OSError as exc:
                raise ValueError(
                    f"cannot read fault plan file {path!r}: {exc}; the "
                    "@file form of --inject-faults needs a readable JSON "
                    "plan document"
                ) from exc
            return cls.from_json(text)
        if spec.startswith("{"):
            return cls.from_json(spec)
        return cls._from_compact(spec)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan JSON must be an object")
        crashes = tuple(
            HostCrash(
                host=int(c["host"]),
                phase=c["phase"] if isinstance(c["phase"], str) else int(c["phase"]),
                op_count=None if c.get("op_count") is None else int(c["op_count"]),
            )
            for c in doc.get("crashes", ())
        )
        slow = {int(h): float(f) for h, f in doc.get("slow_hosts", {}).items()}
        plan = cls(
            seed=int(doc.get("seed", 0)),
            send_failure_rate=float(doc.get("send_failure_rate", 0.0)),
            drop_rate=float(doc.get("drop_rate", 0.0)),
            duplicate_rate=float(doc.get("duplicate_rate", 0.0)),
            corrupt_rate=float(doc.get("corrupt_rate", 0.0)),
            crashes=crashes,
            slow_hosts=slow,
            torn_checkpoints=tuple(
                str(s) for s in doc.get("torn_checkpoints", ())
            ),
        )
        plan.validate()
        return plan

    @classmethod
    def _from_compact(cls, spec: str) -> "FaultPlan":
        kwargs: dict[str, Any] = {"crashes": [], "slow_hosts": {}}
        aliases = {
            "send-fail": "send_failure_rate",
            "send_fail": "send_failure_rate",
            "send_failure_rate": "send_failure_rate",
            "drop": "drop_rate",
            "drop_rate": "drop_rate",
            "dup": "duplicate_rate",
            "duplicate_rate": "duplicate_rate",
            "corrupt": "corrupt_rate",
            "corrupt_rate": "corrupt_rate",
        }
        torn: list[str] = []
        for item in filter(None, (part.strip() for part in spec.split(","))):
            if "=" not in item:
                raise ValueError(f"expected key=value in fault spec, got {item!r}")
            key, _, value = item.partition("=")
            key = key.strip().lower()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in aliases:
                kwargs[aliases[key]] = float(value)
            elif key == "crash":
                host_part, _, phase_part = value.partition("@")
                if not phase_part:
                    raise ValueError(f"crash spec needs HOST@PHASE, got {value!r}")
                phase_str, _, ops = phase_part.partition(":")
                kwargs["crashes"].append(
                    HostCrash(
                        host=int(host_part),
                        phase=int(phase_str),
                        op_count=int(ops) if ops else None,
                    )
                )
            elif key == "slow":
                host_part, _, factor = value.partition(":")
                if not factor:
                    raise ValueError(f"slow spec needs HOST:FACTOR, got {value!r}")
                kwargs["slow_hosts"][int(host_part)] = float(factor)
            elif key == "torn":
                torn.append(value.strip())
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        kwargs["crashes"] = tuple(kwargs["crashes"])
        kwargs["torn_checkpoints"] = tuple(torn)
        plan = cls(**kwargs)
        plan.validate()
        return plan

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.send_failure_rate:
            parts.append(f"send-fail={self.send_failure_rate:g}")
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.corrupt_rate:
            parts.append(f"corrupt={self.corrupt_rate:g}")
        for c in self.crashes:
            where = f"{c.phase}" + (f":{c.op_count}" if c.op_count else "")
            parts.append(f"crash={c.host}@{where}")
        for h, f in sorted(self.slow_hosts.items()):
            parts.append(f"slow={h}:{f:g}")
        for stage in self.torn_checkpoints:
            parts.append(f"torn={stage}")
        return ",".join(parts)


class HostFaultChannel:
    """One host slot's private window onto the fault plan.

    Owns the slot's logical-op counter and a seeded generator derived
    from ``(plan.seed, phase attempt, host)``, so the channel's decision
    sequence depends only on the host's own deterministic op/send order —
    never on how other hosts' operations interleave with it.  A channel
    is used by at most one thread at a time (the host's task, or the
    main thread between tasks).

    :attr:`events_out` is the list injected faults are appended to.  It
    defaults to the injector's global chronological log; a task's host
    view redirects it to the host's private ledger for the duration of
    the task so the log can be merged deterministically in host order.
    """

    def __init__(self, injector: "FaultInjector", host: int):
        self.injector = injector
        self.host = int(host)
        #: Logical accounting operations this slot performed in the phase.
        self.ops = 0
        plan = injector.plan
        self._rng = np.random.default_rng(
            [plan.seed, injector.attempt, self.host]
        )
        self.events_out: list[FaultEvent] = injector.events
        #: Crash indices fired on this channel but not yet committed to
        #: the injector's ``_fired`` set.  When the channel logs straight
        #: to the injector the commit is immediate; when redirected to a
        #: private ledger the executor commits on merge — so a crash
        #: fired by a host whose parallel work is *discarded* (it ran
        #: past the host serial order would have aborted at) is forgotten
        #: exactly as if the host had never run.
        self.fired: list[int] = []

    def live_state(self) -> dict[str, Any]:
        """Picklable mid-phase position: op counter, consumed-draw
        position of the generator, pending (uncommitted) crash fires."""
        return {
            "ops": self.ops,
            "rng": self._rng.bit_generator.state,
            "fired": list(self.fired),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Continue from another process's :meth:`live_state`."""
        self.ops = int(state["ops"])
        self._rng.bit_generator.state = state["rng"]
        self.fired = list(state["fired"])

    def tick(self) -> None:
        """Record one accounting operation; may fire a mid-phase crash."""
        inj = self.injector
        if inj._phase is None:
            return
        self.ops += 1
        for i, crash in enumerate(inj.plan.crashes):
            if (
                i not in inj._fired
                and i not in self.fired
                and crash.host == self.host
                and crash.op_count is not None
                and self.ops >= crash.op_count
                and inj._matches_phase(crash.phase)
            ):
                self.fired.append(i)
                self.events_out.append(("crash", inj._phase, crash.host))
                if self.events_out is inj.events:
                    inj.commit(self)
                raise HostCrashError(crash.host, inj._phase)

    def _draw(self, kind: str, rate: float, dst: int) -> bool:
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.events_out.append((kind, self.injector._phase, self.host, dst))
        return True

    def transient_send_failure(self, dst: int) -> bool:
        return self._draw("send-failure", self.injector.plan.send_failure_rate, dst)

    def dropped(self, dst: int) -> bool:
        return self._draw("drop", self.injector.plan.drop_rate, dst)

    def duplicated(self, dst: int) -> bool:
        return self._draw("duplicate", self.injector.plan.duplicate_rate, dst)

    def corrupted(self, dst: int) -> bool:
        return self._draw("corrupt-payload", self.injector.plan.corrupt_rate, dst)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    One injector is shared by a :class:`~repro.runtime.cluster.
    SimulatedCluster` and all of its per-phase communicators.  Fault
    decisions are delegated to per-host :class:`HostFaultChannel`\\ s
    (fresh ones per phase attempt), so two runs with the same plan inject
    byte-identical fault sequences regardless of which executor drives
    the hosts.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self._fired: set[int] = set()
        self._torn_fired: set[str] = set()
        self._phase: str | None = None
        self._phase_order: list[str] = []
        #: Phase attempts opened so far (replays count); salts the
        #: per-host generators so an aborted attempt's consumed draws
        #: never leak into its replay.
        self.attempt = 0
        self._channels: dict[int, HostFaultChannel] = {}
        #: Chronological log of injected faults:
        #: ("send-failure" | "drop" | "duplicate", phase, src, dst) and
        #: ("crash", phase, host).
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # Phase lifecycle (driven by SimulatedCluster)
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        if name not in self._phase_order:
            self._phase_order.append(name)
        self._phase = name
        self.attempt += 1
        self._channels = {}

    def channel(self, host: int) -> HostFaultChannel:
        """The (per phase-attempt) fault channel of one host slot."""
        ch = self._channels.get(host)
        if ch is None:
            ch = HostFaultChannel(self, host)
            self._channels[host] = ch
        return ch

    def commit(self, channel: HostFaultChannel) -> None:
        """Mark the crashes fired on ``channel`` as permanently done."""
        self._fired.update(channel.fired)
        channel.fired.clear()

    def phase_boundary(self) -> None:
        """Fire any planned crash still pending at the phase's boundary.

        This is the catch-all for boundary crashes (``op_count=None``)
        and for mid-phase crashes whose host finished with fewer ops than
        planned — a planned crash always happens.
        """
        if self._phase is None:
            return
        for i, crash in enumerate(self.plan.crashes):
            if i in self._fired or not self._matches_phase(crash.phase):
                continue
            self._fired.add(i)
            self.events.append(("crash", self._phase, crash.host))
            raise HostCrashError(crash.host, self._phase)

    def _matches_phase(self, spec_phase: str | int) -> bool:
        if isinstance(spec_phase, int):
            return self._phase_order.index(self._phase) == spec_phase
        return spec_phase == self._phase

    # ------------------------------------------------------------------
    # Checkpoint faults (driven by PartitionCheckpoint)
    # ------------------------------------------------------------------
    def torn_checkpoint(self, stage: str) -> bool:
        """True when ``stage``'s durable write should be torn (once)."""
        if stage not in self.plan.torn_checkpoints or stage in self._torn_fired:
            return False
        self._torn_fired.add(stage)
        self.events.append(("torn-checkpoint", self._phase, stage))
        return True

    # ------------------------------------------------------------------
    # Cross-process resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the injector's restorable state.

        Restoring it in a fresh process reproduces the remaining phases'
        channel seeds (``attempt``), crash bookkeeping and event log, so
        a resumed run injects the same fault sequence an uninterrupted
        run would have from that point on.
        """
        return {
            "attempt": self.attempt,
            "fired": sorted(self._fired),
            "torn_fired": sorted(self._torn_fired),
            "phase_order": list(self._phase_order),
            "events": [list(e) for e in self.events],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.attempt = int(state["attempt"])
        self._fired = {int(i) for i in state["fired"]}
        self._torn_fired = {str(s) for s in state.get("torn_fired", ())}
        self._phase_order = [str(p) for p in state["phase_order"]]
        self.events = [tuple(e) for e in state["events"]]
        self._phase = None
        self._channels = {}

    # ------------------------------------------------------------------
    # Mid-phase shipping (pooled process executor)
    # ------------------------------------------------------------------
    def export_live_state(self) -> dict[str, Any]:
        """Picklable snapshot of the injector *mid-phase*, channels included.

        Unlike :meth:`state_dict` (which is for cross-process resume at a
        checkpoint and deliberately resets phase/channel state), this
        captures everything a pool worker needs to continue the exact
        fault sequence from the current point inside a phase: the open
        phase, the per-host op counters, the consumed-draw positions of
        each channel's generator, and pending (uncommitted) crash fires.
        The global event log is *not* shipped — workers redirect channel
        events into per-host ledgers, and the parent merges those in host
        order at the barrier.
        """
        return {
            "plan": self.plan,
            "attempt": self.attempt,
            "phase": self._phase,
            "phase_order": list(self._phase_order),
            "fired": sorted(self._fired),
            "torn_fired": sorted(self._torn_fired),
            "channels": {
                host: ch.live_state() for host, ch in self._channels.items()
            },
        }

    @classmethod
    def from_live_state(cls, state: Mapping[str, Any]) -> "FaultInjector":
        """Reconstruct a worker-side injector from :meth:`export_live_state`."""
        inj = cls(state["plan"])
        inj.attempt = int(state["attempt"])
        inj._phase = state["phase"]
        inj._phase_order = [str(p) for p in state["phase_order"]]
        inj._fired = {int(i) for i in state["fired"]}
        inj._torn_fired = {str(s) for s in state["torn_fired"]}
        for host, ch_state in state["channels"].items():
            inj.channel(int(host)).restore(ch_state)
        return inj


class RecoveryManager:
    """Tracks live hosts and reassigns a dead host's work to survivors.

    Logical hosts (the k partition slots, each with its
    ``compute_read_ranges`` slice) are distinct from the physical hosts
    executing them.  When a physical host crashes, every logical slot it
    was executing is handed to the least-loaded survivor, which must
    re-read the slot's graph slice from disk before replaying — the
    logical schedule itself never changes, which is what makes recovery
    produce a partition bit-identical to the fault-free run.

    Stragglers are handled the same way, short of declaring the host
    dead: :meth:`on_straggler` *quarantines* a host the run supervisor
    found breaching its hard phase deadline, moving its slots (and the
    matching charged re-reads) to healthy hosts.  A quarantined host
    stays alive — it merely receives no further slots — so mitigation
    only re-times the run; the logical schedule, and with it the output
    partition, is unchanged.
    """

    def __init__(self, num_hosts: int):
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        self.num_hosts = num_hosts
        self.alive = np.ones(num_hosts, dtype=bool)
        #: Hosts the supervisor quarantined for straggling (still alive,
        #: but excluded from new slot assignments).
        self.quarantined = np.zeros(num_hosts, dtype=bool)
        #: executors[slot] = physical host currently executing the slot.
        self.executors_map = np.arange(num_hosts, dtype=np.int64)
        self.crash_log: list[tuple[str | None, int]] = []
        #: (phase, host) for every quarantined straggler.
        self.straggler_log: list[tuple[str | None, int]] = []
        self.replays = 0
        self._pending_reread: list[int] = []

    def executors(self) -> np.ndarray:
        """A snapshot of the logical-slot -> physical-host map."""
        return self.executors_map.copy()

    def on_crash(self, host: int, phase: str | None) -> None:
        """Record a crash and redistribute the dead host's slots."""
        self.crash_log.append((phase, int(host)))
        self.replays += 1
        if not (0 <= host < self.num_hosts) or not self.alive[host]:
            return  # spurious crash of an already-dead host
        self.alive[host] = False
        if not self.alive.any():
            raise UnrecoverableClusterError(
                f"all {self.num_hosts} hosts have crashed; nothing to recover on"
            )
        lost = np.flatnonzero(self.executors_map == host)
        for slot in lost:
            self.executors_map[slot] = self._least_loaded_survivor()
        self._pending_reread.extend(int(s) for s in lost)

    def on_straggler(self, host: int, phase: str | None) -> bool:
        """Quarantine a straggling host and migrate its slots.

        Returns False (and does nothing) when ``host`` is already dead
        or quarantined, or when quarantining it would leave no healthy
        host — a cluster of stragglers has no fast host to migrate to,
        so the run must simply wait.  Migrated slots join the pending
        re-read list; the framework charges their disk re-reads exactly
        as it does for crash recovery.
        """
        host = int(host)
        if (
            not (0 <= host < self.num_hosts)
            or not self.alive[host]
            or self.quarantined[host]
        ):
            return False
        remaining = self.alive & ~self.quarantined
        remaining[host] = False
        if not remaining.any():
            return False
        self.quarantined[host] = True
        self.straggler_log.append((phase, host))
        moved = np.flatnonzero(self.executors_map == host)
        for slot in moved:
            self.executors_map[slot] = self._least_loaded_survivor()
        self._pending_reread.extend(int(s) for s in moved)
        return True

    def _least_loaded_survivor(self) -> int:
        healthy = self.alive & ~self.quarantined
        pool = np.flatnonzero(healthy) if healthy.any() else np.flatnonzero(self.alive)
        loads = np.array(
            [(self.executors_map == p).sum() for p in pool], dtype=np.int64
        )
        return int(pool[int(np.argmin(loads))])

    def drain_rereads(self) -> list[int]:
        """Logical slots whose graph slice must be re-read from disk."""
        pending, self._pending_reread = self._pending_reread, []
        return pending

    @property
    def num_dead(self) -> int:
        return int((~self.alive).sum())

    # ------------------------------------------------------------------
    # Cross-process resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the recovery state."""
        return {
            "alive": [bool(a) for a in self.alive],
            "quarantined": [bool(q) for q in self.quarantined],
            "executors_map": [int(e) for e in self.executors_map],
            "crash_log": [list(entry) for entry in self.crash_log],
            "straggler_log": [list(entry) for entry in self.straggler_log],
            "replays": self.replays,
            "pending_reread": list(self._pending_reread),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.alive = np.array(state["alive"], dtype=bool)
        self.quarantined = np.array(state["quarantined"], dtype=bool)
        self.executors_map = np.array(state["executors_map"], dtype=np.int64)
        self.crash_log = [(p, int(h)) for p, h in state["crash_log"]]
        self.straggler_log = [
            (p, int(h)) for p, h in state.get("straggler_log", ())
        ]
        self.replays = int(state["replays"])
        self._pending_reread = [int(s) for s in state["pending_reread"]]


@dataclass(frozen=True)
class FaultReport:
    """What a partitioning run survived (``CuSP.last_fault_report``)."""

    plan: FaultPlan
    #: Chronological injected-fault log (copied from the injector).
    events: tuple[FaultEvent, ...]
    #: (phase, host) for every crash the recovery machinery handled.
    crash_log: tuple[tuple[str | None, int], ...]
    #: Number of phase replays performed.
    replays: int
    #: (phase, host) for every straggler the supervisor quarantined.
    straggler_log: tuple[tuple[str | None, int], ...] = ()
    #: Torn durable-checkpoint writes detected and repaired by digest
    #: verification.
    torn_repairs: int = 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            key = str(event[0])
            out[key] = out.get(key, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        if not counts and not self.replays and not self.straggler_log:
            return "no faults injected"
        bits = [f"{n} {kind}(s)" for kind, n in sorted(counts.items())]
        if self.replays:
            bits.append(f"{self.replays} phase replay(s)")
        if self.straggler_log:
            bits.append(f"{len(self.straggler_log)} straggler(s) quarantined")
        if self.torn_repairs:
            bits.append(f"{self.torn_repairs} torn write(s) repaired")
        return ", ".join(bits)
