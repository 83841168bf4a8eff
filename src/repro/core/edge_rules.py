"""``getEdgeOwner`` rules (paper Algorithm 2).

An edge rule decides which partition owns each edge, given the partitions
holding the master proxies of the edge's endpoints.  All built-in rules
are stateless and fully vectorized; custom rules may keep state via the
same :class:`~repro.core.state.PartitioningState` machinery as master
rules.
"""

from __future__ import annotations

import math

import numpy as np

from .prop import GraphProp
from .state import PartitioningState, VoidState

__all__ = [
    "EdgeRule",
    "SourceRule",
    "DestRule",
    "HybridRule",
    "CartesianRule",
    "CheckerboardRule",
    "JaggedRule",
    "DegreeHashRule",
    "grid_shape",
    "EDGE_RULES",
    "make_edge_rule",
]


def grid_shape(num_partitions: int) -> tuple[int, int]:
    """Factor ``num_partitions`` into the most square (rows, cols) grid.

    Cartesian vertex-cuts view the partitions as a ``p_r x p_c`` grid with
    ``p_r * p_c == num_partitions`` (paper §II-A3).  We pick the
    factorization with ``p_r`` closest to sqrt(k) from below, matching
    common 2-D partitioner practice.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    pr = int(math.isqrt(num_partitions))
    while num_partitions % pr:
        pr -= 1
    return pr, num_partitions // pr


class EdgeRule:
    """Base class for ``getEdgeOwner`` rules."""

    name: str = "abstract"
    stateful: bool = False

    def make_state(
        self,
        num_partitions: int,
        num_hosts: int,
        num_nodes: int | None = None,
    ) -> PartitioningState:
        """Create this rule's estate.

        ``num_nodes`` is supplied for rules whose state is per-vertex
        (e.g. the Table I streaming vertex-cuts); stateless rules ignore
        it.
        """
        return VoidState()

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        """Partition owning edge ``(src_id, dst_id)`` (paper signature)."""
        raise NotImplementedError

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        """Batched owner computation; default loops over :meth:`owner`."""
        out = np.empty(len(src_ids), dtype=np.int32)
        for i in range(len(src_ids)):
            out[i] = self.owner(
                prop,
                int(src_ids[i]),
                int(dst_ids[i]),
                int(src_masters[i]),
                int(dst_masters[i]),
                estate,
            )
        return out

    #: Structural invariant the rule guarantees, used by the analytics
    #: engine to pick communication optimizations (paper §V-C):
    #: "edge-cut", "2d-cut", or "vertex-cut" (no invariant).  "2d-cut"
    #: promises exactly this: every edge lives in the grid row of its
    #: source's master (``grid_shape``).  It does *not* promise that a
    #: proxy stays in its master's row or column; only Cartesian adds
    #: that.
    invariant: str = "vertex-cut"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class SourceRule(EdgeRule):
    """Assign every edge to its source's master (outgoing edge-cut)."""

    name = "Source"
    invariant = "edge-cut"

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        return src_master

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        return np.asarray(src_masters, dtype=np.int32).copy()


class DestRule(EdgeRule):
    """Assign every edge to its destination's master (incoming edge-cut).

    Not in the paper's Algorithm 2, but the natural dual of Source: a
    Source policy over a CSC input equals a Dest policy over CSR, and
    having both makes the CSR/CSC policy variants (paper §III-B) explicit.
    """

    name = "Dest"
    invariant = "edge-cut"

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        return dst_master

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        return np.asarray(dst_masters, dtype=np.int32).copy()


class HybridRule(EdgeRule):
    """PowerLyra's hybrid cut (Algorithm 2, HYBRID).

    Low-degree sources keep their edges (like Source); edges of
    high-degree sources follow the destination's master instead, which
    spreads hub fan-out across partitions.  The result is a general
    vertex-cut with no structural invariant.
    """

    name = "Hybrid"
    invariant = "vertex-cut"

    def __init__(self, degree_threshold: int = 100):
        if degree_threshold < 0:
            raise ValueError("degree_threshold must be >= 0")
        self.degree_threshold = degree_threshold

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        if prop.getNodeOutDegree(src_id) > self.degree_threshold:
            return dst_master
        return src_master

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        degrees = prop.out_degrees(np.asarray(src_ids))
        return np.where(
            degrees > self.degree_threshold, dst_masters, src_masters
        ).astype(np.int32)


class CartesianRule(EdgeRule):
    """Cartesian (2-D block) vertex-cut (Algorithm 2, CARTESIAN).

    The adjacency matrix is blocked by the master assignment in both
    dimensions; block (m_s, m_d) goes to the partition at grid position
    (blocked row m_s, cyclic column m_d).  Beyond the "2d-cut" row
    promise, the cyclic column puts every destination proxy in its
    master's grid column, so every proxy sits in the grid row or column
    of its master and a partition only shares vertices with partitions
    there, the invariant D-Galois exploits (paper §V-C).
    """

    name = "Cartesian"
    invariant = "2d-cut"

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        _, pc = grid_shape(prop.getNumPartitions())
        blocked_row = (src_master // pc) * pc
        cyclic_col = dst_master % pc
        return blocked_row + cyclic_col

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        _, pc = grid_shape(prop.getNumPartitions())
        blocked_row = (np.asarray(src_masters) // pc) * pc
        cyclic_col = np.asarray(dst_masters) % pc
        return (blocked_row + cyclic_col).astype(np.int32)


class CheckerboardRule(EdgeRule):
    """Checkerboard (block-block) vertex-cut — BVC [19], [18] from Table I.

    Like Cartesian, the adjacency matrix is blocked by masters in both
    dimensions, but *both* dimensions are distributed blocked (CVC uses a
    cyclic column distribution): grid cell (row band of the source
    master, column band of the destination master) owns the edge.
    Every edge lives in the grid row of its source's master; the
    blocked column band is not the destination master's grid column,
    so destination proxies may sit outside their master's row and
    column.
    """

    name = "Checkerboard"
    invariant = "2d-cut"

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        pr, pc = grid_shape(prop.getNumPartitions())
        row_band = src_master // pc          # in [0, pr)
        col_band = dst_master // pr          # in [0, pc)
        return row_band * pc + col_band

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        pr, pc = grid_shape(prop.getNumPartitions())
        row_band = np.asarray(src_masters) // pc
        col_band = np.asarray(dst_masters) // pr
        return (row_band * pc + col_band).astype(np.int32)


class JaggedRule(EdgeRule):
    """Jagged vertex-cut — JVC [18] from Table I (streaming analogue).

    Offline JVC blocks the rows, then splits each row band's columns
    independently to balance its nonzeros.  A streaming partitioner only
    has the master assignment, so this analogue keeps the blocked rows
    and *staggers* the cyclic column distribution per row band — the
    column boundaries differ across bands (the "jagged" property) while
    each edge's owner still follows from pure arithmetic on the masters.
    Every edge lives in the grid row of its source's master; the
    staggered column is not the destination master's grid column, so
    destination proxies may sit outside their master's row and column.
    """

    name = "Jagged"
    invariant = "2d-cut"

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        pr, pc = grid_shape(prop.getNumPartitions())
        row_band = src_master // pc
        col = (dst_master + row_band) % pc
        return row_band * pc + col

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        pr, pc = grid_shape(prop.getNumPartitions())
        row_band = np.asarray(src_masters) // pc
        col = (np.asarray(dst_masters) + row_band) % pc
        return (row_band * pc + col).astype(np.int32)


class DegreeHashRule(EdgeRule):
    """Degree-based hashing (DBH [17]) — an extension policy.

    Each edge is assigned by hashing the id of its lower-out-degree
    endpoint, so hub vertices get replicated while low-degree vertices
    keep their edges together.  Demonstrates that CuSP's interface covers
    the remaining streaming vertex-cut family in Table I.
    """

    name = "DegreeHash"
    invariant = "vertex-cut"

    @staticmethod
    def _hash(ids: np.ndarray, k: int) -> np.ndarray:
        # Fibonacci hashing; cheap, deterministic, well-mixed.
        return ((np.asarray(ids, dtype=np.uint64) * np.uint64(11400714819323198485)) >> np.uint64(40)) % np.uint64(k)

    def owner(
        self,
        prop: GraphProp,
        src_id: int,
        dst_id: int,
        src_master: int,
        dst_master: int,
        estate: PartitioningState | None = None,
    ) -> int:
        k = prop.getNumPartitions()
        if prop.getNodeOutDegree(src_id) <= prop.getNodeOutDegree(dst_id):
            return int(self._hash(np.array([src_id]), k)[0])
        return int(self._hash(np.array([dst_id]), k)[0])

    def owner_batch(
        self,
        prop: GraphProp,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        src_masters: np.ndarray,
        dst_masters: np.ndarray,
        estate: PartitioningState | None = None,
    ) -> np.ndarray:
        k = prop.getNumPartitions()
        src_ids = np.asarray(src_ids)
        dst_ids = np.asarray(dst_ids)
        use_src = prop.out_degrees(src_ids) <= prop.out_degrees(dst_ids)
        chosen = np.where(use_src, src_ids, dst_ids)
        return self._hash(chosen, k).astype(np.int32)


EDGE_RULES = {
    "Source": SourceRule,
    "Dest": DestRule,
    "Hybrid": HybridRule,
    "Cartesian": CartesianRule,
    "Checkerboard": CheckerboardRule,
    "Jagged": JaggedRule,
    "DegreeHash": DegreeHashRule,
}


def _register_streaming_rules() -> None:
    # Deferred import: streaming_rules imports EdgeRule from this module.
    from .streaming_rules import GreedyVertexCut, HDRFRule

    EDGE_RULES.setdefault("Greedy", GreedyVertexCut)
    EDGE_RULES.setdefault("HDRF", HDRFRule)


def make_edge_rule(name: str, **kwargs: object) -> EdgeRule:
    """Instantiate an edge rule by its paper name."""
    _register_streaming_rules()
    if name not in EDGE_RULES:
        raise KeyError(f"unknown edge rule {name!r}; choose from {list(EDGE_RULES)}")
    return EDGE_RULES[name](**kwargs)
