"""CommSan: the runtime phase-communication sanitizer.

An opt-in observer for :class:`~repro.runtime.comm.Communicator` that
audits every finished phase against its declared
:class:`~repro.analysis.contracts.model.PhaseContract` and against the
ledger's conservation laws.  Where the ``deep-contract`` lint rule
proves properties of the *code*, CommSan checks the *run*: a send on
an undeclared or inactive tag, a topology breach, a collective-round
count that disagrees with the spec, bytes that appear in the
accounting without a matching
``send``/``merge_ledger`` (or vice versa), queue entries that bypass
``send``/``recv_all``, a payload left on a queue no task drains, and
fault-injector retries that are charged more or less than exactly once.

Attach one ``CommSan`` per run:

* ``CuSP(..., sanitizer=True)`` (or ``sanitizer=CommSan(...)``) wires it
  through :class:`~repro.runtime.cluster.SimulatedCluster`, which calls
  :meth:`CommSan.begin_phase` / :meth:`CommSan.end_phase` around every
  phase;
* the first violation of a phase raises
  :class:`~repro.analysis.contracts.model.ContractViolationError` at
  the phase barrier, naming the (phase, host, op) plus a fix hint; all
  violations also accumulate on :attr:`CommSan.violations` for suites
  that assert emptiness.

Phases that abort (host crash mid-phase) are checked only for the
invariants a truncated phase must still satisfy — op admission,
topology, byte/queue conservation and payload-free undrained queues —
not for round counts, drains, or retry totals, which a replayed attempt
legitimately cuts short.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ...runtime.faults import retry_event_channels
from .model import (
    ContractContext,
    ContractSet,
    ContractViolation,
    ContractViolationError,
    PhaseContract,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ...runtime.comm import CommLedger, Communicator
    from ...runtime.stats import PhaseStats

__all__ = ["CommSan"]


class CommSan:
    """Runtime differential checker for one run's phase communication.

    Implements the :class:`~repro.runtime.comm.CommObserver` protocol;
    :class:`~repro.runtime.cluster.SimulatedCluster` installs it on each
    phase's fresh communicator.  Mirrors the byte accounting through the
    same operations the communicator itself performs, so a clean run
    compares exactly (no tolerances) and any third party touching the
    matrices or queues directly shows up as a conservation violation.
    """

    def __init__(
        self,
        contracts: ContractSet | None = None,
        context: ContractContext | None = None,
    ) -> None:
        if contracts is None:
            from repro.core.contracts import PHASE_CONTRACTS

            contracts = PHASE_CONTRACTS
        self.contracts = contracts
        #: The run configuration used to evaluate conditional clauses and
        #: expected round counts; ``CuSP.partition`` assigns it, manual
        #: harnesses may leave it ``None`` (counts then go unchecked).
        self.context: ContractContext | None = context
        #: Every violation observed so far, across phases (cumulative).
        self.violations: list[ContractViolation] = []
        self.phases_checked: int = 0
        self.ops_observed: int = 0
        self._reset_phase_state(0)

    # -- observer state ------------------------------------------------

    def _reset_phase_state(self, num_hosts: int) -> None:
        self._sends: dict[tuple[int, int, str], int] = {}
        self._drained: dict[tuple[int, str], int] = {}
        self._observed = np.zeros((num_hosts, num_hosts), dtype=np.float64)
        self._event_mark = 0

    def on_merge(self, ledger: "CommLedger") -> None:
        self._observed[ledger.host, :] += ledger.sent_bytes
        for dst, tag, _payload in ledger.queued:
            self.ops_observed += 1
            key = (ledger.host, dst, tag)
            self._sends[key] = self._sends.get(key, 0) + 1

    def on_recv(self, dst: int, tag: str, count: int) -> None:
        key = (dst, tag)
        self._drained[key] = self._drained.get(key, 0) + count

    # -- phase lifecycle ----------------------------------------------

    def begin_phase(self, stats: "PhaseStats") -> None:
        comm = stats.comm
        self._reset_phase_state(comm.num_hosts)
        if comm.injector is not None:
            self._event_mark = len(comm.injector.events)
        comm.observer = self

    def end_phase(self, stats: "PhaseStats", raise_now: bool = True) -> None:
        """Audit the finished phase; raise on the first violation.

        Called at the phase barrier with ``raise_now=False`` when the
        phase is already unwinding an exception (the original failure
        must propagate; violations still accumulate).
        """
        comm = stats.comm
        comm.observer = None
        contract = self.contracts.get(stats.name)
        new: list[ContractViolation] = []
        if contract is not None:
            self._check_p2p_admission(stats, comm, contract, new)
            self._check_collectives(stats, comm, contract, new)
            self._check_unread_payloads(stats, comm, contract, new)
        self._check_queue_conservation(stats, comm, new)
        if contract is not None and not stats.failed:
            self._check_drains(stats, comm, contract, new)
        self._check_byte_conservation(stats, comm, new)
        if comm.injector is not None and not stats.failed:
            self._check_retry_conservation(stats, comm, new)
        self.phases_checked += 1
        self.violations.extend(new)
        self._reset_phase_state(0)
        if new and raise_now:
            raise ContractViolationError(new[0])

    # -- individual checks --------------------------------------------

    def _check_p2p_admission(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        contract: PhaseContract,
        out: list[ContractViolation],
    ) -> None:
        declared = ", ".join(sorted(repr(t) for t in contract.p2p_tags())) or "none"
        for src, dst, tag in sorted(self._sends):
            spec = contract.find_p2p(tag)
            op = f"p2p tag {tag!r}"
            if spec is None:
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=src,
                        op=op,
                        message=(
                            f"sent {self._sends[(src, dst, tag)]} message(s) to "
                            f"host {dst} on a tag the contract does not declare "
                            f"(declared tags: {declared}); declare an OpSpec in "
                            "repro.core.contracts or remove the send"
                        ),
                    )
                )
            elif not spec.active(self.context):
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=src,
                        op=op,
                        message=(
                            f"sent to host {dst}, but the clause is inactive "
                            f"under this run's configuration ({self.context}); "
                            "the phase should have elided this exchange"
                        ),
                    )
                )
            elif not spec.allows_pair(src, dst, comm.num_hosts):
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=src,
                        op=op,
                        message=(
                            f"sent to host {dst}, outside the declared "
                            f"{spec.topology!r} topology"
                        ),
                    )
                )

    def _check_collectives(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        contract: PhaseContract,
        out: list[ContractViolation],
    ) -> None:
        kind_counts: dict[str, int] = {}
        for kind, _charged in comm.collective_events:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
        for kind in sorted(kind_counts):
            active = [
                s for s in contract.collective_specs(kind) if s.active(self.context)
            ]
            if not active:
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=None,
                        op=kind,
                        message=(
                            f"observed {kind_counts[kind]} {kind} event(s), but "
                            "the contract declares no active clause of this "
                            "kind; declare an OpSpec in repro.core.contracts "
                            "or remove the collective"
                        ),
                    )
                )
        if comm.barriers > 0 and not any(
            s.active(self.context) for s in contract.collective_specs("barrier")
        ):
            out.append(
                ContractViolation(
                    phase=stats.name,
                    host=None,
                    op="barrier",
                    message=(
                        f"observed {comm.barriers} explicit barrier(s), but the "
                        "contract declares none (the phase-end merge is the "
                        "only sanctioned synchronization point)"
                    ),
                )
            )
        if self.context is None or stats.failed:
            return  # round counts are configuration functions; can't check
        for kind in sorted(contract.collective_kinds()):
            if kind == "barrier":
                continue
            active = [
                s for s in contract.collective_specs(kind) if s.active(self.context)
            ]
            if not active:
                continue
            expected_each = [s.expected_rounds(self.context) for s in active]
            if any(e is None for e in expected_each):
                continue  # at least one clause leaves the count unconstrained
            expected = sum(e for e in expected_each if e is not None)
            observed = kind_counts.get(kind, 0)
            if observed != expected:
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=None,
                        op=kind,
                        message=(
                            f"expected {expected} {kind} round(s) under this "
                            f"run's configuration, observed {observed}"
                        ),
                    )
                )

    def _check_queue_conservation(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        out: list[ContractViolation],
    ) -> None:
        enqueued: dict[tuple[int, str], int] = {}
        for (_src, dst, tag), count in self._sends.items():
            key = (dst, tag)
            enqueued[key] = enqueued.get(key, 0) + count
        for dst, tag in sorted(enqueued):
            sent = enqueued[(dst, tag)]
            drained = self._drained.get((dst, tag), 0)
            pending = comm.pending(dst, tag)
            if sent != drained + pending:
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=dst,
                        op=f"p2p tag {tag!r}",
                        message=(
                            f"{sent} message(s) enqueued but {drained} drained "
                            f"+ {pending} pending; a queue was mutated outside "
                            "Communicator.send/recv_all"
                        ),
                    )
                )

    def _check_drains(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        contract: PhaseContract,
        out: list[ContractViolation],
    ) -> None:
        for spec in contract.ops:
            if spec.kind != "p2p" or not spec.drained or not spec.active(self.context):
                continue
            assert spec.tag is not None  # p2p clauses always carry a tag
            for dst in range(comm.num_hosts):
                pending = comm.pending(dst, spec.tag)
                if pending:
                    out.append(
                        ContractViolation(
                            phase=stats.name,
                            host=dst,
                            op=f"p2p tag {spec.tag!r}",
                            message=(
                                f"{pending} message(s) left undrained at the "
                                "phase barrier, but the contract declares this "
                                "tag drained=True"
                            ),
                        )
                    )

    def _check_unread_payloads(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        contract: PhaseContract,
        out: list[ContractViolation],
    ) -> None:
        """A ``drained=False`` tag has no reader: whatever is still
        queued under it must be an accounting-only ``None`` marker."""
        for spec in contract.ops:
            if spec.kind != "p2p" or spec.drained or not spec.active(self.context):
                continue
            assert spec.tag is not None  # p2p clauses always carry a tag
            for dst in range(comm.num_hosts):
                pending = comm.snapshot_queues(dst, (spec.tag,)).get(spec.tag, ())
                for src, payload in pending:
                    if payload is not None:
                        out.append(
                            ContractViolation(
                                phase=stats.name,
                                host=src,
                                op=f"p2p tag {spec.tag!r}",
                                message=(
                                    f"{type(payload).__name__} payload left on "
                                    f"a queue nobody drains (host {dst}'s); "
                                    "send payload=None with nbytes=... and "
                                    "return the data as the task's result"
                                ),
                            )
                        )
                        break  # one violation per queue names the pattern

    def _check_byte_conservation(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        out: list[ContractViolation],
    ) -> None:
        if self._observed.shape != comm.sent_bytes.shape:
            shape: Any = comm.sent_bytes.shape
            out.append(
                ContractViolation(
                    phase=stats.name,
                    host=None,
                    op="byte accounting",
                    message=f"communicator host count changed mid-phase ({shape})",
                )
            )
            return
        if np.array_equal(self._observed, comm.sent_bytes):
            return
        mismatches = np.argwhere(self._observed != comm.sent_bytes)
        src, dst = (int(x) for x in mismatches[0])
        out.append(
            ContractViolation(
                phase=stats.name,
                host=src,
                op="byte accounting",
                message=(
                    f"channel {src}->{dst}: observed {self._observed[src, dst]:.0f} "
                    f"byte(s) through send/merge_ledger but the ledger records "
                    f"{comm.sent_bytes[src, dst]:.0f}; accounting was mutated "
                    "outside Communicator.send/merge_ledger"
                ),
            )
        )

    def _check_retry_conservation(
        self,
        stats: "PhaseStats",
        comm: "Communicator",
        out: list[ContractViolation],
    ) -> None:
        injector = comm.injector
        assert injector is not None
        events = injector.events[self._event_mark :]
        expected = retry_event_channels(events)
        charged: dict[tuple[int, int], int] = {}
        for src, dst in np.argwhere(comm.retry_messages > 0):
            charged[(int(src), int(dst))] = int(round(comm.retry_messages[src, dst]))
        for key in sorted(set(expected) | set(charged)):
            want = expected.get(key, 0)
            got = charged.get(key, 0)
            if want != got:
                src, dst = key
                out.append(
                    ContractViolation(
                        phase=stats.name,
                        host=src,
                        op="retry transport",
                        message=(
                            f"channel {src}->{dst}: fault injector recorded "
                            f"{want} retry event(s) but {got} were charged; "
                            "retries must be charged exactly once"
                        ),
                    )
                )
