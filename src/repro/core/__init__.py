"""CuSP core: the customizable streaming edge partitioning framework."""

from .edge_rules import (
    CartesianRule,
    CheckerboardRule,
    JaggedRule,
    DegreeHashRule,
    DestRule,
    EDGE_RULES,
    EdgeRule,
    HybridRule,
    SourceRule,
    grid_shape,
    make_edge_rule,
)
from .contracts import PHASE_CONTRACTS, contract_context_for
from .framework import PHASE_NAMES, CuSP
from .partition_io import (
    CheckpointCorruptionError,
    PartitionCheckpoint,
    load_partitions,
    save_partitions,
)
from .master_rules import (
    LDG,
    Contiguous,
    ContiguousEB,
    Fennel,
    FennelEB,
    MASTER_RULES,
    MasterRule,
    make_master_rule,
)
from .partition import DistributedGraph, LocalPartition
from .policies import (PAPER_POLICIES, POLICY_TABLE, Policy, make_policy,
                       policy_names, window_policy)
from .prop import GraphProp
from .reading import (
    compute_read_ranges,
    read_bytes_for_range,
    read_bytes_for_ranges,
)
from .state import PartitioningState, PartitionLoadState, VoidState
from .streaming_rules import GreedyVertexCut, HDRFRule, ReplicationState, WindowRule
from .validate import ValidationReport, check_csr, check_partition

__all__ = [
    "CuSP",
    "PHASE_NAMES",
    "PHASE_CONTRACTS",
    "contract_context_for",
    "save_partitions",
    "load_partitions",
    "Policy",
    "make_policy",
    "policy_names",
    "window_policy",
    "PAPER_POLICIES",
    "POLICY_TABLE",
    "GraphProp",
    "MasterRule",
    "Contiguous",
    "ContiguousEB",
    "Fennel",
    "FennelEB",
    "MASTER_RULES",
    "make_master_rule",
    "EdgeRule",
    "SourceRule",
    "DestRule",
    "HybridRule",
    "CartesianRule",
    "CheckerboardRule",
    "JaggedRule",
    "LDG",
    "DegreeHashRule",
    "EDGE_RULES",
    "make_edge_rule",
    "grid_shape",
    "DistributedGraph",
    "LocalPartition",
    "PartitioningState",
    "PartitionLoadState",
    "VoidState",
    "GreedyVertexCut",
    "HDRFRule",
    "ReplicationState",
    "WindowRule",
    "compute_read_ranges",
    "read_bytes_for_range",
    "read_bytes_for_ranges",
    "PartitionCheckpoint",
    "CheckpointCorruptionError",
    "ValidationReport",
    "check_csr",
    "check_partition",
]
