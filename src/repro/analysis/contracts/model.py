"""The phase-contract language: declarative specs for phase communication.

A :class:`PhaseContract` names every communication operation one of the
partitioner's bulk-synchronous phases is allowed to perform: its
point-to-point message tags (with peer topology and payload kind), its
collectives, and — for collectives — the exact number of rounds expected
as a function of the run configuration (:class:`ContractContext`).

Contracts are *data*; two independent verifiers consume them:

* the ``deep-contract`` rule of ``repro lint``
  (:mod:`repro.analysis.ipa.analyses`) diffs a contract against the
  comm ops the phase's code can emit, and
* the runtime sanitizer (:mod:`repro.analysis.contracts.sanitize`)
  audits every finished phase's :class:`~repro.runtime.comm.Communicator`
  against the contract and the ledger's conservation laws.

The five CuSP phase contracts are declared in
:mod:`repro.core.contracts`; this module only defines the language.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "OP_KINDS",
    "TOPOLOGIES",
    "ContractContext",
    "OpSpec",
    "PhaseContract",
    "ContractSet",
    "ContractViolation",
    "ContractViolationError",
]

#: Operation kinds a contract clause may declare.  ``p2p`` covers tagged
#: point-to-point sends (a broadcast is a p2p clause with topology
#: ``"broadcast"``); the remaining kinds mirror the communicator's
#: collective event names.
OP_KINDS = ("p2p", "allreduce", "allreduce-async", "allgather", "barrier")

#: Peer topologies for point-to-point clauses.
TOPOLOGIES = ("all-to-all", "broadcast", "neighbor", "master-only")


@dataclass(frozen=True)
class ContractContext:
    """The run configuration a contract's conditional clauses depend on.

    Collective-round counts and clause activation are functions of this
    context: e.g. the master-assignment phase performs exactly
    ``sync_rounds`` asynchronous allreduces — but only when the master
    rule is history-sensitive.
    """

    num_hosts: int
    sync_rounds: int = 1
    #: True when the master rule is pure (Contiguous family): assignment
    #: is a pure function and the phase needs no communication at all.
    master_pure: bool = True
    #: True when the master rule keeps partitioning state that must be
    #: reconciled at round boundaries (Fennel/FennelEB/LDG).
    master_stateful: bool = False
    #: True when the edge rule keeps streaming state (GreedyVertexCut,
    #: HDRF) reconciled once per host chunk.
    edge_stateful: bool = False
    #: Paper §IV-D5: replicate computation / request-driven exchange
    #: instead of broadcasting assignments (False only for the ablation).
    elide_master_communication: bool = True


@dataclass(frozen=True)
class OpSpec:
    """One allowed communication operation of a phase.

    ``rounds`` (collectives only) maps a :class:`ContractContext` to the
    exact number of events expected in one phase execution; ``None``
    leaves the count unconstrained.  ``when`` gates the clause on the
    run configuration — an op observed while its clause is inactive is a
    violation just like an undeclared op.  ``drained`` promises that
    receivers consume every message of this tag before the phase
    barrier (via ``recv_all``); a ``drained=False`` tag has no reader,
    so its sends must be accounting-only — the runtime sanitizer rejects
    any payload but ``None`` left on such a queue.  ``batched`` marks
    p2p channels carried by the columnar fabric
    (:mod:`repro.runtime.colfab`): ``deep-contract`` rejects
    ``send_batch``/``recv_all_batch`` traffic on a clause that does not
    declare it.
    """

    kind: str
    tag: str | None = None
    topology: str = "all-to-all"
    payload: str = ""
    drained: bool = False
    batched: bool = False
    rounds: Callable[[ContractContext], int] | None = None
    when: Callable[[ContractContext], bool] | None = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(
                f"unknown op kind {self.kind!r}; choose from {OP_KINDS}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.kind == "p2p" and not self.tag:
            raise ValueError("p2p clauses must declare a message tag")
        if self.kind != "p2p" and self.tag is not None:
            raise ValueError(f"{self.kind} clauses carry no tag")
        if self.batched and self.kind != "p2p":
            raise ValueError("batched applies to p2p clauses only")

    def active(self, ctx: ContractContext | None) -> bool:
        """Whether this clause applies under ``ctx`` (None = unknown: yes)."""
        if ctx is None or self.when is None:
            return True
        return bool(self.when(ctx))

    def expected_rounds(self, ctx: ContractContext) -> int | None:
        """Exact expected event count under ``ctx`` (None = unconstrained)."""
        if self.rounds is None:
            return None
        return int(self.rounds(ctx))

    def allows_pair(self, src: int, dst: int, num_hosts: int) -> bool:
        """Whether a ``src -> dst`` transfer satisfies the topology."""
        if src == dst:
            return True  # local delivery costs nothing and is always legal
        if self.topology in ("all-to-all", "broadcast"):
            return True
        if self.topology == "neighbor":
            return abs(src - dst) in (1, num_hosts - 1)
        return src == 0 or dst == 0  # master-only

    def describe(self) -> str:
        if self.kind == "p2p":
            return f"p2p tag {self.tag!r} ({self.topology})"
        return self.kind


@dataclass(frozen=True)
class PhaseContract:
    """The declared communication contract of one named phase.

    ``modules`` lists the package-relative source files implementing the
    phase: the first is the *primary* module holding the phase's entry
    functions (``entry_points``); the rest are the rule/state modules
    the phase dispatches into (their reachable comm ops count toward
    this phase).
    """

    phase: str
    ops: tuple[OpSpec, ...] = ()
    modules: tuple[str, ...] = ()
    entry_points: tuple[str, ...] = ()
    description: str = ""

    def p2p_tags(self) -> set[str]:
        return {s.tag for s in self.ops if s.kind == "p2p" and s.tag}

    def find_p2p(self, tag: str) -> OpSpec | None:
        for spec in self.ops:
            if spec.kind == "p2p" and spec.tag == tag:
                return spec
        return None

    def collective_specs(self, kind: str) -> list[OpSpec]:
        return [s for s in self.ops if s.kind == kind]

    def collective_kinds(self) -> set[str]:
        return {s.kind for s in self.ops if s.kind != "p2p"}


class ContractSet:
    """An ordered collection of phase contracts, indexed by phase name."""

    def __init__(self, contracts: Iterable[PhaseContract]):
        self._contracts = list(contracts)
        self.by_phase: dict[str, PhaseContract] = {}
        for c in self._contracts:
            if c.phase in self.by_phase:
                raise ValueError(f"duplicate contract for phase {c.phase!r}")
            self.by_phase[c.phase] = c

    def __iter__(self) -> Iterator[PhaseContract]:
        return iter(self._contracts)

    def __len__(self) -> int:
        return len(self._contracts)

    def get(self, phase: str) -> PhaseContract | None:
        return self.by_phase.get(phase)


@dataclass(frozen=True)
class ContractViolation:
    """One runtime contract/conservation breach, fully located.

    ``op`` names the offending operation (e.g. ``p2p tag 'gossip'`` or
    ``allreduce-async``); ``host`` is the originating host when one is
    attributable (``None`` for phase-global invariants).
    """

    phase: str
    host: int | None
    op: str
    message: str

    def render(self) -> str:
        where = f"host {self.host}" if self.host is not None else "all hosts"
        return f"phase {self.phase!r}: {where}: {self.op}: {self.message}"


class ContractViolationError(RuntimeError):
    """Raised by the runtime sanitizer on the first contract breach."""

    def __init__(self, violation: ContractViolation):
        super().__init__(violation.render())
        self.violation = violation
