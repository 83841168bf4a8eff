"""The five CuSP phase-communication contracts (paper §III, Fig. 2).

Each :class:`~repro.analysis.contracts.model.PhaseContract` declares
everything a phase is allowed to say on the wire: its point-to-point
tags (with topology and payload kind), its collectives with exact
expected round counts as functions of the run configuration, and which
source modules implement the phase.  The ``deep-contract`` rule of
``repro lint`` diffs these declarations against the code; the runtime
sanitizer (:class:`repro.analysis.contracts.CommSan`) audits real runs
against them.

Phase names are string literals rather than imports from
:mod:`.framework` so this module stays import-light (the lint rules
load it from inside check functions); ``tests/test_contracts.py``
asserts they match ``PHASE_NAMES`` exactly.
"""

from __future__ import annotations

from ..analysis.contracts.model import (
    ContractContext,
    ContractSet,
    OpSpec,
    PhaseContract,
)

__all__ = [
    "READING_CONTRACT",
    "MASTERS_CONTRACT",
    "EDGES_CONTRACT",
    "ALLOCATION_CONTRACT",
    "CONSTRUCTION_CONTRACT",
    "PHASE_CONTRACTS",
    "contract_context_for",
]


READING_CONTRACT = PhaseContract(
    phase="Graph Reading",
    modules=("core/framework.py", "core/reading.py"),
    entry_points=("phase_reading",),
    ops=(),
    description=(
        "Each host reads its on-disk edge slice independently; the phase "
        "performs no communication at all (paper §IV-A: reading is "
        "embarrassingly parallel by construction)."
    ),
)


MASTERS_CONTRACT = PhaseContract(
    phase="Master Assignment",
    modules=("core/masters_phase.py", "core/state.py", "core/master_rules.py"),
    entry_points=("run_master_assignment",),
    ops=(
        # Request-driven exchange for impure rules under communication
        # elision (§IV-D5): each host asks the assigning host only for
        # the node ids it actually needs.
        OpSpec(
            "p2p",
            tag="master-requests",
            payload="accounting-only, n × 8 B (requested node ids)",
            when=lambda ctx: not ctx.master_pure
            and ctx.elide_master_communication,
        ),
        # Assignments shipped back to requesters (elided runs) or to
        # every host (ablation): (node id, partition) pairs.
        OpSpec(
            "p2p",
            tag="master-assignments",
            payload="accounting-only, n × 12 B ((node id, partition) pairs)",
            when=lambda ctx: not ctx.master_pure,
        ),
        # Ablation of §IV-D5 for *pure* rules: broadcast every local
        # assignment instead of replicating the pure computation.
        OpSpec(
            "p2p",
            tag="master-broadcast",
            topology="broadcast",
            payload="(node id, partition) pairs (12 B/entry)",
            when=lambda ctx: ctx.master_pure
            and not ctx.elide_master_communication,
        ),
        # Stateful rules (Fennel/FennelEB/LDG) reconcile partition loads
        # once per assignment round: exactly sync_rounds async allreduces.
        OpSpec(
            "allreduce-async",
            payload="2k int64 partition load deltas",
            rounds=lambda ctx: ctx.sync_rounds if ctx.master_stateful else 0,
            when=lambda ctx: ctx.master_stateful,
        ),
    ),
    description=(
        "Pure rules assign masters with zero communication (replicated "
        "computation); impure rules exchange requests/assignments and, "
        "when stateful, reconcile loads every round.  Every send is "
        "accounting-only: the ids travel as task results."
    ),
)


EDGES_CONTRACT = PhaseContract(
    phase="Edge Assignment",
    modules=(
        "core/assignment_phase.py",
        "core/state.py",
        "core/streaming_rules.py",
        "core/edge_rules.py",
    ),
    entry_points=("run_edge_assignment",),
    ops=(
        # Per-host prefix metadata: edge counts per assigned node plus
        # mirror info, charged by size; the block carries the edge total
        # (or an 8 B empty-slice notification).
        OpSpec(
            "p2p",
            tag="edge-counts",
            payload="per-node edge counts + mirror info (8 B empty marker)",
            drained=True,
            batched=True,
        ),
        # Stateful edge rules (GreedyVertexCut/HDRF) reconcile replica
        # sets and loads once per host chunk on the chain() path.
        OpSpec(
            "allreduce-async",
            payload="replica bitmap + load/degree vectors",
            rounds=lambda ctx: ctx.num_hosts if ctx.edge_stateful else 0,
            when=lambda ctx: ctx.edge_stateful,
        ),
    ),
    description=(
        "Hosts assign their read edges and exchange per-node count "
        "prefixes all-to-all; the tally drains every message before the "
        "phase barrier."
    ),
)


ALLOCATION_CONTRACT = PhaseContract(
    phase="Graph Allocation/Other",
    modules=("core/construction_phase.py",),
    entry_points=("run_allocation",),
    ops=(),
    description=(
        "Local CSR sizing and proxy bookkeeping only; the counts needed "
        "were already exchanged during edge assignment."
    ),
)


CONSTRUCTION_CONTRACT = PhaseContract(
    phase="Graph Construction",
    modules=("core/construction_phase.py",),
    entry_points=("run_construction",),
    ops=(
        # The only phase that moves edge payloads, including a host's
        # own slice (self-sends are free but keep the code uniform).
        OpSpec(
            "p2p",
            tag="edges",
            payload="serialized (src, dst[, weight]) bundles per source",
            drained=True,
            batched=True,
        ),
    ),
    description=(
        "Edges shuffle to their owning hosts and every receiver drains "
        "its queue while building the local CSR."
    ),
)


PHASE_CONTRACTS = ContractSet(
    [
        READING_CONTRACT,
        MASTERS_CONTRACT,
        EDGES_CONTRACT,
        ALLOCATION_CONTRACT,
        CONSTRUCTION_CONTRACT,
    ]
)


def contract_context_for(
    policy: object,
    num_hosts: int,
    sync_rounds: int = 1,
    elide_master_communication: bool = True,
) -> ContractContext:
    """The :class:`ContractContext` describing one ``CuSP.partition`` run.

    ``policy`` is a resolved :class:`~repro.core.policies.Policy` (any
    object with ``master_rule``/``edge_rule`` attributes works, which
    keeps test harnesses free to stub it).
    """
    master_rule = policy.master_rule  # type: ignore[attr-defined]
    edge_rule = policy.edge_rule  # type: ignore[attr-defined]
    return ContractContext(
        num_hosts=int(num_hosts),
        sync_rounds=int(sync_rounds),
        master_pure=bool(master_rule.is_pure),
        master_stateful=bool(master_rule.stateful),
        edge_stateful=bool(edge_rule.stateful),
        elide_master_communication=bool(elide_master_communication),
    )
