"""``getMaster`` rules (paper Algorithm 1).

A master rule decides, for each vertex, which partition holds its master
proxy.  The framework calls rules through :meth:`MasterRule.assign_batch`
so built-in stateless rules can run fully vectorized.  History-sensitive
rules (Fennel, FennelEB, LDG) must decide vertex by vertex — each
placement feeds the next vertex's load term — but everything that does
not depend on the decisions is prefetched once per batch: the
neighbour-per-partition counts of every batch vertex and a reverse index
that re-files them when a master inside the batch changes
(:func:`_prefetch_neighbor_counts`).

Rule capabilities drive the framework's synchronization optimizations
(paper §IV-D5):

* ``is_pure`` (no state, no ``masters`` argument): every host can
  *recompute* any master assignment locally, so the master-assignment
  phase needs no communication at all (EEC/HVC/CVC take this path);
* ``uses_masters``: the rule reads neighbors' assignments, so assignments
  must be exchanged between rounds (FEC/GVC/SVC take this path).
"""

from __future__ import annotations

import math

import numpy as np

from ..graph.csr import CSRGraph
from .prop import GraphProp
from .state import PartitioningState, PartitionLoadState, VoidState

__all__ = [
    "MasterRule",
    "Contiguous",
    "ContiguousEB",
    "Fennel",
    "FennelEB",
    "LDG",
    "MASTER_RULES",
    "make_master_rule",
]


class MasterRule:
    """Base class for ``getMaster`` rules."""

    name: str = "abstract"
    #: True when the rule reads the ``masters`` map of neighbors.
    uses_masters: bool = False
    #: True when the rule reads/writes partitioning state.
    stateful: bool = False

    @property
    def is_pure(self) -> bool:
        """Pure rules are replicated (recomputed) instead of communicated."""
        return not (self.uses_masters or self.stateful)

    def make_state(self, num_partitions: int, num_hosts: int) -> PartitioningState:
        return VoidState()

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        """Partition of the master proxy for ``node_id`` (paper signature)."""
        raise NotImplementedError

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorizable batched assignment; default loops over :meth:`assign`.

        Multiple calls with the same arguments must return the same values
        (paper §III-A); stateful rules therefore process nodes in a fixed
        order.
        """
        out = np.empty(len(node_ids), dtype=np.int32)
        for i, v in enumerate(np.asarray(node_ids)):
            out[i] = self.assign(prop, int(v), mstate, masters)
            if masters is not None:
                # A host's own assignments are locally visible at once
                # (its local masters map, paper SIV-B2).
                masters[v] = out[i]
        return out

    def compute_units(self, num_nodes: int, num_edges: int, k: int) -> float:
        """Abstract work units to assign ``num_nodes`` masters (cost model)."""
        return float(num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class Contiguous(MasterRule):
    """Equal-sized contiguous chunks of node ids (Algorithm 1, CONTIGUOUS)."""

    name = "Contiguous"

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        block = math.ceil(prop.getNumNodes() / prop.getNumPartitions())
        return node_id // block

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        block = math.ceil(prop.getNumNodes() / prop.getNumPartitions())
        return (np.asarray(node_ids) // block).astype(np.int32)


class ContiguousEB(MasterRule):
    """Contiguous chunks balanced by outgoing-edge count (CONTIGUOUSEB).

    The partition of a node is determined by which equal-sized block of the
    *edge array* its first outgoing edge falls in, so every partition gets
    roughly the same number of edges.
    """

    name = "ContiguousEB"

    def _edge_block(self, prop: GraphProp) -> int:
        return math.ceil((prop.getNumEdges() + 1) / prop.getNumPartitions())

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        first = prop.first_out_edges(np.array([node_id]))[0]
        return int(first) // self._edge_block(prop)

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        first = prop.first_out_edges(np.asarray(node_ids))
        return (first // self._edge_block(prop)).astype(np.int32)


def _prefetch_neighbor_counts(
    graph: CSRGraph, node_ids: np.ndarray, masters: np.ndarray | None, k: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray] | None]]:
    """Neighbour-per-partition counts of a whole batch, gathered once.

    Returns ``(counts, folds)``:

    * ``counts[i, p]`` (C-contiguous float64 holding exact small
      integers): how many out-neighbours of ``node_ids[i]`` are mastered
      on partition ``p`` under ``masters`` as passed in (``-1`` =
      unplaced) — what the per-node formulation's
      ``bincount(masters[nbrs][masters[nbrs] >= 0])`` yields for row
      ``i`` if nothing is written before it.
    * ``folds[i]``, the reverse index that keeps ``counts`` true for
      the rows still to come while the caller writes
      ``masters[node_ids[i]]`` row by row: ``None`` when no row after
      the vertex's first one has ``node_ids[i]`` as an out-neighbour
      (most rows — they pay nothing), else ``(cells, mult)``: those
      rows, as ascending flat offsets ``row * k`` into
      ``counts.ravel()``, and how many parallel edges each has.  When
      ``masters[node_ids[i]]`` moves from ``old`` to ``new`` the caller
      hands the pair to :func:`_refile_neighbor`.  The fold is keyed on
      the vertex, not on the batch position, so unsorted and repeated
      ``node_ids``, pre-mastered vertices and self-loops all take the
      same path.

    A pure function of its arguments; memory is O(out-edges of the
    batch + ``len(node_ids) * k``).  ``masters=None`` (no neighbour
    information) gives all-zero counts and no folds.
    """
    batch = node_ids.size
    folds: list[tuple[np.ndarray, np.ndarray] | None] = [None] * batch
    indptr, indices = graph.indptr, graph.indices
    starts = indptr[node_ids]
    degrees = indptr[node_ids + 1] - starts
    total = int(degrees.sum())
    if masters is None or total == 0:
        return np.zeros((batch, k)), folds
    row = np.repeat(np.arange(batch, dtype=np.int64), degrees)
    # Flat edge positions of every row's out-edges, in row order.
    row_offset = np.cumsum(degrees) - degrees
    nbrs = indices[
        np.arange(total, dtype=np.int64)
        + np.repeat(starts - row_offset, degrees)
    ]
    # One 2-D bincount over ``row * (k + 1) + masters[nbrs] + 1``: the
    # unplaced (-1) neighbours land in a column 0 that is dropped.
    counts = np.ascontiguousarray(
        np.bincount(
            row * (k + 1) + (masters[nbrs] + 1), minlength=batch * (k + 1)
        ).reshape(batch, k + 1)[:, 1:],
        dtype=np.float64,
    )

    # Reverse index over the edges that stay inside the batch.  The
    # range test is exact for the contiguous chunks the framework
    # passes and only a pre-filter otherwise.
    first_row = np.argsort(node_ids, kind="stable")
    vertices = node_ids[first_row]
    inside = np.flatnonzero((nbrs >= vertices[0]) & (nbrs <= vertices[-1]))
    # One entry per distinct (target vertex, source row), sorted by
    # target: parallel edges collapse into a multiplicity, so a fold
    # never names a row twice and in-place fancy updates are safe.
    pair, mult = np.unique(
        nbrs[inside] * batch + row[inside], return_counts=True
    )
    target, source = pair // batch, pair % batch
    # A repeated vertex is looked up under its first slot, the one the
    # stable sort gives its first row.  That row is where the vertex is
    # first written, and rows up to it are never read again, so only
    # later source rows need the fold.
    slot = np.searchsorted(vertices, target)
    keep = (vertices[slot] == target) & (source > first_row[slot])
    slot, cells, mult = (
        slot[keep], source[keep] * k, mult[keep].astype(np.float64)
    )
    bounds = np.searchsorted(slot, np.arange(batch + 1, dtype=np.int64))
    row_slot = np.searchsorted(vertices, node_ids)
    lo, hi = bounds[row_slot], bounds[row_slot + 1]
    has_fold = lo != hi
    for i, a, b in zip(
        np.flatnonzero(has_fold).tolist(),
        lo[has_fold].tolist(),
        hi[has_fold].tolist(),
    ):
        folds[i] = (cells[a:b], mult[a:b])
    return counts, folds


def _refile_neighbor(
    counts: np.ndarray,
    fold: tuple[np.ndarray, np.ndarray],
    old: int,
    new: int,
) -> None:
    """Move one vertex from partition ``old`` (``-1``: unplaced) to
    ``new`` in every row of ``counts`` that has it as an out-neighbour
    (``fold``: its entry in :func:`_prefetch_neighbor_counts`'s reverse
    index)."""
    if old == new:
        return
    cells, mult = fold
    flat = counts.ravel()  # C-contiguous by the helper's contract: a view
    if old >= 0:
        flat[cells + old] -= mult
    flat[cells + new] += mult


#: Rows per anchor of :func:`_decisive_bounds` in FennelEB's ``sqrt``
#: loop: a fresh anchor keeps the bounds tight (the penalties drift
#: down as the window's rows are placed), a longer window pays for
#: fewer of its vectorized passes.
_DECISIVE_WINDOW = 64


def _decisive_bounds(
    penalty: np.ndarray, counts: np.ndarray, monotone: bool
) -> tuple[list[int], list[float]]:
    """``(best, bound)`` for a window of score rows, anchored now.

    ``best[r]`` is row ``r``'s argmax of ``penalty + counts[r]`` and
    ``bound[r]`` its best score in any other column.  While no penalty
    rises and no count off ``best[r]`` goes up without
    :func:`_raise_bounds` hearing of it, ``bound[r]`` stays an upper
    bound on those columns, so a current ``best[r]`` score strictly
    above it makes ``best[r]`` the argmax without recomputing the row.
    ``monotone=False`` (no such guarantee on the penalties) gives
    bounds that decide nothing.
    """
    if not monotone:
        return [0] * len(counts), [math.inf] * len(counts)
    scores = penalty + counts
    best = scores.argmax(axis=1)
    scores[np.arange(best.size), best] = -np.inf
    return best.tolist(), scores.max(axis=1).tolist()


def _raise_bounds(
    best: list[int],
    bound: list[float],
    lo: int,
    flat: np.ndarray,
    cells: np.ndarray,
    part: int,
    penalty: float,
    k: int,
) -> None:
    """Keep the bounds of the window starting at row ``lo`` valid after
    a fold raised column ``part`` of the rows at ``cells`` (offsets
    ``row * k`` into ``flat``, the raveled counts).  ``penalty`` is
    that column's penalty now; later placements only lower it.  A raise
    in a row's ``best`` column needs nothing: the test reads that
    column's count as it is."""
    hi = lo + len(bound)
    for c in cells.tolist():
        r = c // k
        if lo <= r < hi and best[r - lo] != part:
            score = penalty + flat.item(c + part)
            if score > bound[r - lo]:
                bound[r - lo] = score


#: Abstract compute units per Fennel score entry: each entry evaluates a
#: floating-point pow() under an irregular access pattern, roughly 20x the
#: single-op unit the cost model is denominated in.
_SCORE_UNIT = 20.0


def _fennel_alpha(n: int, m: int, k: int, gamma: float) -> float:
    """The paper's alpha = m * h^(gamma-1) / n^gamma (§V-A)."""
    if n == 0:
        return 0.0
    return m * (k ** (gamma - 1)) / (n**gamma)


class Fennel(MasterRule):
    """The Fennel streaming heuristic (Algorithm 1, FENNEL).

    Scores each partition by the number of already-placed neighbors it
    holds minus a load penalty ``alpha * gamma * numNodes[p]**(gamma-1)``
    and places the node on the best-scoring partition.  (The paper's
    pseudocode lists the penalty without the minus sign; the Fennel
    objective it cites [13] subtracts it, which is what we do — otherwise
    the rule would pile every node onto one partition.)
    """

    name = "Fennel"
    uses_masters = True
    stateful = True

    def __init__(self, gamma: float = 1.5):
        if gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        self.gamma = gamma

    def make_state(self, num_partitions: int, num_hosts: int) -> PartitionLoadState:
        return PartitionLoadState(num_partitions, num_hosts)

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        k = prop.getNumPartitions()
        alpha = _fennel_alpha(
            prop.getNumNodes(), prop.getNumEdges(), k, self.gamma
        )
        load = mstate.numNodes.astype(np.float64)
        score = -(alpha * self.gamma) * np.power(load, self.gamma - 1.0)
        if masters is not None:
            nbrs = prop.getNodeOutNeighbors(node_id)
            if nbrs.size:
                known = masters[nbrs]
                known = known[known >= 0]
                if known.size:
                    score += np.bincount(known, minlength=k)
        part = int(np.argmax(score))
        mstate.add_node(part)
        return part

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        """Incremental-penalty batch kernel.

        Decisions stay sequential — each placement feeds the next node's
        load term — but the k-wide ``pow()`` penalty vector is maintained
        *in place*: a placement changes one partition's load, so only
        that entry is recomputed (one scalar ``pow`` per node instead of
        k).  The single-entry update evaluates exactly the expression the
        per-node formulation evaluates for that entry, so the decision
        sequence is bit-identical to :meth:`assign` called in order.
        The affinity term comes from :func:`_prefetch_neighbor_counts`:
        gathered once for the batch, re-filed only when a placement
        changes the master of a vertex some batch row points at.
        """
        node_ids = np.asarray(node_ids)
        out = np.empty(node_ids.size, dtype=np.int32)
        if node_ids.size == 0:
            return out
        k = prop.getNumPartitions()
        alpha_gamma = (
            _fennel_alpha(prop.getNumNodes(), prop.getNumEdges(), k, self.gamma)
            * self.gamma
        )
        gm1 = self.gamma - 1.0
        load = mstate.numNodes.astype(np.float64)
        penalty = -alpha_gamma * np.power(load, gm1)
        # Loads are integer node counts, so every penalty value a
        # placement can produce is known up front: one vectorized pow
        # over [0, max_load + batch] replaces all per-node pow calls.
        # Table entries evaluate the same expression on the same values,
        # so lookups are bit-identical to the per-node recompute.
        load_int = [int(x) for x in mstate.numNodes]
        top = max(load_int) + node_ids.size + 1
        table = -alpha_gamma * np.power(
            np.arange(top, dtype=np.float64), gm1
        )
        counts, folds = _prefetch_neighbor_counts(
            prop.graph, node_ids, masters, k
        )
        for i, v in enumerate(node_ids.tolist()):
            # With no placed neighbors the affinity row is zero and the
            # penalty alone decides.
            part = int((penalty + counts[i]).argmax())
            out[i] = part
            li = load_int[part] + 1
            load_int[part] = li
            penalty[part] = table[li]
            if masters is not None:
                if folds[i] is not None:
                    _refile_neighbor(counts, folds[i], masters[v], part)
                masters[v] = part
        # State deltas sum per partition, so one bulk charge at the end
        # leaves mstate exactly as n per-node add_node() calls would.
        placed = np.bincount(out, minlength=k)
        for p in np.flatnonzero(placed):
            mstate.add_node(int(p), int(placed[p]))
        return out

    def compute_units(self, num_nodes: int, num_edges: int, k: int) -> float:
        # Per node: a k-length score vector where every entry pays a
        # pow() (~10 simple ops), plus a scan of its neighbors.
        return float(num_nodes * k * _SCORE_UNIT + num_edges)


class FennelEB(MasterRule):
    """Edge-balanced Fennel variant (Algorithm 1, FENNELEB; used by PowerLyra's
    Ginger).

    High-degree nodes short-circuit to :class:`ContiguousEB` (the paper's
    pseudocode neither scores nor charges them to the load state).  For the
    rest, the load penalty uses ``(numNodes[p] + mu * numEdges[p]) / 2``
    with ``mu = n / m``; placed nodes charge both their node and their
    out-degree worth of edges to the chosen partition.  (The pseudocode
    writes ``numEdges[part]++``, but a single unit per node would make
    ``numEdges`` identical to ``numNodes`` and the edge-balance term
    vacuous; charging the out-degree matches the Ginger heuristic [5].)
    """

    name = "FennelEB"
    uses_masters = True
    stateful = True

    def __init__(self, gamma: float = 1.5, degree_threshold: int = 100):
        if gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        if degree_threshold < 0:
            raise ValueError("degree_threshold must be >= 0")
        self.gamma = gamma
        self.degree_threshold = degree_threshold
        self._contiguous_eb = ContiguousEB()

    def make_state(self, num_partitions: int, num_hosts: int) -> PartitionLoadState:
        return PartitionLoadState(num_partitions, num_hosts)

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        degree = prop.getNodeOutDegree(node_id)
        if degree > self.degree_threshold:
            return self._contiguous_eb.assign(prop, node_id, mstate)
        k = prop.getNumPartitions()
        n, m = prop.getNumNodes(), prop.getNumEdges()
        alpha = _fennel_alpha(n, m, k, self.gamma)
        mu = n / m if m else 0.0
        load = (
            mstate.numNodes.astype(np.float64)
            + mu * mstate.numEdges.astype(np.float64)
        ) / 2.0
        score = -(alpha * self.gamma) * np.power(load, self.gamma - 1.0)
        if masters is not None:
            nbrs = prop.getNodeOutNeighbors(node_id)
            if nbrs.size:
                known = masters[nbrs]
                known = known[known >= 0]
                if known.size:
                    score += np.bincount(known, minlength=k)
        part = int(np.argmax(score))
        mstate.add_node(part)
        mstate.add_edges(part, degree)
        return part

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        """Incremental-penalty batch kernel (see :meth:`Fennel.assign_batch`).

        The high-degree short-circuit is vectorized up front: those nodes
        go straight to ContiguousEB, and their masters are visible to
        every scored row of the batch (earlier ones included).  For the
        rest, the blended ``(numNodes + mu * numEdges) / 2`` load penalty
        is maintained in place — only the chosen partition's entry is
        recomputed per placement — keeping the decision sequence
        bit-identical to :meth:`assign` called on the short-circuited
        nodes first and then on the rest in order.  Neighbour counts are
        prefetched for the scored rows after the short-circuit has
        written its masters.

        At ``gamma = 1.5`` (SVC's and GVC's) the entry is recomputed as
        ``-alpha_gamma * math.sqrt(load)``: NumPy evaluates
        ``power(x, 0.5)`` as IEEE ``sqrt``, so these are the bits
        :meth:`assign`'s ``np.power`` gives, at a twentieth of the cost
        of a one-element NumPy call (``math.pow`` is *not* the same: it
        differs in the last bit).  There the penalties also only fall
        within a batch, so a row's score in any column but its argmax at
        the start of its window of :data:`_DECISIVE_WINDOW` rows stays
        below that window's bound (:func:`_decisive_bounds`, raised by
        :func:`_raise_bounds` when a fold adds to one of those counts).
        A row whose argmax column now scores strictly above its bound is
        placed there without the NumPy argmax; a tie or a closer call
        takes ``(penalty + counts[i]).argmax()`` and its first-index
        rule.  Any other ``gamma`` keeps the one-element ``np.power``
        and the argmax on every row.
        """
        node_ids = np.asarray(node_ids)
        out = np.empty(node_ids.size, dtype=np.int32)
        if node_ids.size == 0:
            return out
        k = prop.getNumPartitions()
        n, m = prop.getNumNodes(), prop.getNumEdges()
        degrees = prop.out_degrees(node_ids)
        high = degrees > self.degree_threshold
        if high.any():
            out[high] = self._contiguous_eb.assign_batch(
                prop, node_ids[high], None
            )
            if masters is not None:
                masters[node_ids[high]] = out[high]
        if high.all():
            return out
        alpha_gamma = _fennel_alpha(n, m, k, self.gamma) * self.gamma
        gm1 = self.gamma - 1.0
        mu = n / m if m else 0.0
        nodes_load = mstate.numNodes.astype(np.float64)
        edges_load = mstate.numEdges.astype(np.float64)
        penalty = -alpha_gamma * np.power(
            (nodes_load + mu * edges_load) / 2.0, gm1
        )
        # The scalar loads live in Python floats (the same IEEE doubles,
        # without an array access per update).
        nodes_load, edges_load = nodes_load.tolist(), edges_load.tolist()
        low_positions = np.flatnonzero(~high)
        low_ids = node_ids[low_positions]
        low_degrees = degrees[low_positions].astype(np.float64).tolist()
        counts, folds = _prefetch_neighbor_counts(
            prop.graph, low_ids, masters, k
        )
        # At the default gamma = 1.5 the one-entry update is an exact
        # scalar sqrt, and the penalties only fall as the batch places
        # rows, which lets a row whose argmax is already decided by the
        # window's bounds skip the NumPy argmax.
        exact_sqrt = gm1 == 0.5
        flat = counts.ravel()
        pen = penalty.tolist()  # the same doubles, read without NumPy
        power, sqrt = np.power, math.sqrt
        load_cell = np.empty(1, dtype=np.float64)
        low_out = []
        lo = hi = 0
        for i, v in enumerate(low_ids.tolist()):
            if i == hi:
                lo, hi = i, i + _DECISIVE_WINDOW
                best, bound = _decisive_bounds(
                    penalty, counts[lo:hi], exact_sqrt
                )
            part = best[i - lo]
            if not pen[part] + flat.item(i * k + part) > bound[i - lo]:
                # Undecided (a tie, a close call, or no monotone
                # penalty): the first-index argmax decides.
                part = int((penalty + counts[i]).argmax())
            low_out.append(part)
            nodes_load[part] += 1.0
            edges_load[part] += low_degrees[i]
            load = (nodes_load[part] + mu * edges_load[part]) / 2.0
            if exact_sqrt:
                # NumPy's power(x, 0.5) is IEEE sqrt: the same bits.
                penalty[part] = pen[part] = -alpha_gamma * sqrt(load)
            else:
                # Same vectorized pow kernel as the full recompute,
                # applied to the one entry that changed.
                load_cell[0] = load
                penalty[part] = pen[part] = (
                    -alpha_gamma * power(load_cell, gm1)[0]
                )
            if masters is not None:
                fold = folds[i]
                if fold is not None:
                    old = masters[v]
                    if old != part:
                        _refile_neighbor(counts, fold, old, part)
                        # Cells ascend: a fold that starts past the
                        # window touches no bound in it.
                        if exact_sqrt and fold[0].item(0) < hi * k:
                            _raise_bounds(
                                best, bound, lo, flat, fold[0], part,
                                pen[part], k,
                            )
                masters[v] = part
        low_parts = np.asarray(low_out, dtype=np.int32)
        out[low_positions] = low_parts
        # Bulk state charge: deltas sum per partition, so this leaves
        # mstate exactly as per-node add_node/add_edges calls would.
        placed = np.bincount(low_parts, minlength=k)
        placed_edges = np.bincount(
            low_parts, weights=degrees[low_positions], minlength=k
        ).astype(np.int64)
        for p in np.flatnonzero(placed):
            mstate.add_node(int(p), int(placed[p]))
            mstate.add_edges(int(p), int(placed_edges[p]))
        return out

    def compute_units(self, num_nodes: int, num_edges: int, k: int) -> float:
        return float(num_nodes * k * _SCORE_UNIT + num_edges)



class LDG(MasterRule):
    """Linear Deterministic Greedy [12] (Table I's remaining edge-cut).

    Places each vertex on the partition maximizing
    ``|N(v) intersect P| * (1 - |P| / capacity)`` where capacity is the
    balanced share ``ceil(n / k)``: neighbor affinity scaled down as the
    partition fills, hitting zero at capacity.  Like Fennel it needs the
    total vertex count up front and tracks assignment state (paper
    SII-B1); unlike Fennel the penalty is multiplicative, so LDG never
    overfills a partition.
    """

    name = "LDG"
    uses_masters = True
    stateful = True

    def make_state(self, num_partitions: int, num_hosts: int) -> PartitionLoadState:
        return PartitionLoadState(num_partitions, num_hosts)

    def assign(
        self,
        prop: GraphProp,
        node_id: int,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> int:
        k = prop.getNumPartitions()
        capacity = math.ceil(prop.getNumNodes() / k) or 1
        load = mstate.numNodes.astype(np.float64)
        weight = 1.0 - load / capacity
        affinity = np.zeros(k, dtype=np.float64)
        if masters is not None:
            nbrs = prop.getNodeOutNeighbors(node_id)
            if nbrs.size:
                known = masters[nbrs]
                known = known[known >= 0]
                if known.size:
                    affinity = np.bincount(known, minlength=k).astype(np.float64)
        score = affinity * np.maximum(weight, 0.0)
        if not score.any():
            # No placed neighbors (or everything full): least loaded.
            part = int(np.argmin(load))
        else:
            part = int(np.argmax(score))
        if load[part] >= capacity:
            part = int(np.argmin(load))
        mstate.add_node(part)
        return part

    def assign_batch(
        self,
        prop: GraphProp,
        node_ids: np.ndarray,
        mstate: PartitioningState | None,
        masters: np.ndarray | None = None,
    ) -> np.ndarray:
        node_ids = np.asarray(node_ids)
        out = np.empty(node_ids.size, dtype=np.int32)
        if node_ids.size == 0:
            return out
        k = prop.getNumPartitions()
        capacity = math.ceil(prop.getNumNodes() / k) or 1
        load = mstate.numNodes.astype(np.float64)
        # A placement changes one partition's load, so the clamped
        # ``1 - load / capacity`` weight is maintained one entry at a
        # time, as the same IEEE expression on that entry.
        weight = np.maximum(1.0 - load / capacity, 0.0)
        counts, folds = _prefetch_neighbor_counts(
            prop.graph, node_ids, masters, k
        )
        for i, v in enumerate(node_ids.tolist()):
            score = counts[i] * weight
            if not score.any():
                # No placed neighbors (or everything full): least loaded.
                part = int(load.argmin())
            else:
                part = int(score.argmax())
            if load[part] >= capacity:
                part = int(load.argmin())
            out[i] = part
            load[part] += 1.0
            weight[part] = max(1.0 - load[part] / capacity, 0.0)
            if masters is not None:
                if folds[i] is not None:
                    _refile_neighbor(counts, folds[i], masters[v], part)
                masters[v] = part
        # Bulk state charge, as in :meth:`Fennel.assign_batch`.
        placed = np.bincount(out, minlength=k)
        for p in np.flatnonzero(placed):
            mstate.add_node(int(p), int(placed[p]))
        return out

    def compute_units(self, num_nodes: int, num_edges: int, k: int) -> float:
        return float(num_nodes * k * _SCORE_UNIT + num_edges)


MASTER_RULES = {
    "Contiguous": Contiguous,
    "ContiguousEB": ContiguousEB,
    "Fennel": Fennel,
    "FennelEB": FennelEB,
    "LDG": LDG,
}


def make_master_rule(name: str, **kwargs: object) -> MasterRule:
    """Instantiate a master rule by its paper name."""
    if name not in MASTER_RULES:
        raise KeyError(f"unknown master rule {name!r}; choose from {list(MASTER_RULES)}")
    return MASTER_RULES[name](**kwargs)
