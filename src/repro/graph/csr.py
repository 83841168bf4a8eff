"""Compressed Sparse Row graph storage.

This is the fundamental in-memory graph representation used throughout the
reproduction, mirroring the on-disk CSR/CSC formats CuSP consumes
(paper §III-A).  A :class:`CSRGraph` stores a directed graph as two NumPy
arrays:

``indptr``
    ``int64`` array of length ``num_nodes + 1``; the outgoing edges of node
    ``v`` occupy ``indices[indptr[v]:indptr[v + 1]]``.
``indices``
    ``int64`` array of length ``num_edges`` holding destination node ids.

An optional ``edge_data`` array of the same length as ``indices`` carries
edge weights (used by sssp).  Interpreting the same arrays as a CSC matrix
yields the incoming-edge view; :meth:`CSRGraph.transpose` converts between
the two (the paper's in-memory transpose, §IV-B5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CSRGraph", "narrow_group_keys", "node_id_dtype", "stable_group_order"
]


def _as_integer(a, name: str) -> np.ndarray:
    """``a`` as a contiguous one-dimensional integer array at its own
    width: any signed dtype, or unsigned up to 32 bits (what NumPy
    counts and indexes with by a safe cast); anything else — ``uint64``,
    an empty non-integer input — becomes int64."""
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if kind == "i" or (kind == "u" and size < 8):
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.int64)


def _as_int64(a, name: str) -> np.ndarray:
    return _as_integer(a, name).astype(np.int64, copy=False)


#: Largest node count for which src * num_nodes + dst fits in int64.
_MAX_COMPOSITE_NODES = 3_037_000_499


def _edge_key(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """The fused key ``src * num_nodes + dst`` of every edge, a fresh
    array, for ``num_nodes`` below :data:`_MAX_COMPOSITE_NODES`.

    The key is injective over (src, dst) pairs, so ordering it orders
    the edges by (src, dst), and ``key % num_nodes`` is the destination.
    Up to 65 536 nodes every key is below 2**32 and is held as
    ``uint32``: half the bytes to sort and move.  Columns narrower than
    int64 (ids validated to ``[0, num_nodes)``) build that key in place,
    with no int64 temporary; int64 columns build it as they always have,
    since glibc's mmap threshold follows the sizes freed and the
    in-place order raises the peak RSS of a caller that generates a
    graph.
    """
    if num_nodes <= 65536 and src.itemsize < 8:
        key = src.astype(np.uint32)
        np.multiply(key, num_nodes, out=key, casting="unsafe")
        np.add(key, dst, out=key, casting="unsafe")
        return key
    key = src.astype(np.int64, copy=False) * num_nodes + dst
    if num_nodes <= 65536:
        key = key.astype(np.uint32)
    return key


def _edge_sort_order(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Indices sorting edges by (src, dst), duplicates in input order.

    The permutation is what carries a payload (edge weights) along with
    its edge; :meth:`CSRGraph.from_edges` sorts payload-free edges by
    key value instead and never builds it.  ``np.lexsort`` runs one
    comparison sort per key; when the composite key (:func:`_edge_key`)
    fits an integer word, a single stable argsort of it yields the
    identical permutation — the key is injective and stability
    preserves duplicate order — at 2-3x the speed.  Both are comparison
    sorts: NumPy's stable argsort is a radix sort only for keys of 16
    bits or fewer (see :func:`stable_group_order`) and timsort for
    anything wider.  Graphs too large for the fused key fall back to
    lexsort.
    """
    if num_nodes >= _MAX_COMPOSITE_NODES:
        return np.lexsort((dst, src))
    return np.argsort(_edge_key(src, dst, num_nodes), kind="stable")


def _sorted_destinations(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    dedup: bool,
    indptr: np.ndarray,
) -> np.ndarray:
    """The int64 destinations of payload-free edges in (src, dst) order,
    from the sorted values of the fused key; with ``dedup`` the rows of
    the kept edges are counted into ``indptr``.

    The key is sorted in place and its remainders mod ``num_nodes``
    are taken in place at its width, as ``key - (key // num_nodes) *
    num_nodes``: NumPy divides by a scalar through a precomputed
    multiplier, about 3x faster than ``np.remainder``.  The quotients
    (the sources) are freed before the int64 result is made, so at most
    the key and one array of its width, or the key and the result, are
    live at once; the key is freed on return.
    """
    key = _edge_key(src, dst, num_nodes)
    key.sort()
    if dedup:
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    rows = key // num_nodes
    if dedup:
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    np.multiply(rows, num_nodes, out=rows)
    np.subtract(key, rows, out=key)
    del rows
    return key.astype(np.int64, copy=False)


def narrow_group_keys(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``keys`` in ``[0, num_keys)`` in the narrowest dtype that holds
    them: ``uint8`` up to 256 keys, ``uint16`` up to 65 536, the input
    dtype beyond.  An array already that narrow is returned as is.

    Raises :class:`ValueError` naming the offending value when a key is
    negative or ``>= num_keys`` — a narrowed key would otherwise wrap
    and group silently wrong.
    """
    if keys.size:
        lo, hi = int(keys.min()), int(keys.max())
        if lo < 0 or hi >= num_keys:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"group key {bad} out of range [0, {num_keys})"
            )
    if num_keys <= 1 << 8:
        return keys.astype(np.uint8, copy=False)
    if num_keys <= 1 << 16:
        return keys.astype(np.uint16, copy=False)
    return keys


def node_id_dtype(num_nodes: int) -> np.dtype:
    """The narrowest dtype that holds every node id in ``[0, num_nodes)``:
    ``uint16`` up to 65 536 nodes (the boundary :func:`narrow_group_keys`
    uses), ``uint32`` up to 2**32, ``int64`` beyond.

    For ids that are stored or shipped, not indexed with: NumPy converts
    a non-``intp`` index array on every fancy-indexing use, so ids held
    this narrow are widened to ``int64`` once, where they become indices.
    """
    if num_nodes <= 1 << 16:
        return np.dtype(np.uint16)
    if num_nodes <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def stable_group_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, num_keys)``.

    The group-by primitive behind every "bucket rows by owner" step:
    entries sharing a key stay in input order.  NumPy's stable argsort
    is an O(n) radix sort for integer keys of 16 bits or fewer and an
    O(n log n) timsort for anything wider, whatever values the keys
    hold, so the keys are narrowed by :func:`narrow_group_keys` first
    (1-2 bytes per entry); a wider range takes the plain argsort.  The
    permutation is identical either way, and a key out of range raises
    :class:`ValueError`.
    """
    return np.argsort(narrow_group_keys(keys, num_keys), kind="stable")


@dataclass
class CSRGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    indptr:
        Row-pointer array, length ``num_nodes + 1``, non-decreasing,
        ``indptr[0] == 0`` and ``indptr[-1] == len(indices)``.
    indices:
        Destination node id per edge.
    edge_data:
        Optional per-edge payload (e.g. weights).  ``None`` for unweighted
        graphs.

    The constructor validates the structural invariants; use
    :meth:`from_edges` to build from an edge list.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_data: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.indptr = _as_int64(self.indptr, "indptr")
        self.indices = _as_int64(self.indices, "indices")
        if self.indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError(
                f"indptr[-1] ({self.indptr[-1]}) must equal len(indices) "
                f"({self.indices.size})"
            )
        if self.indptr.size > 1 and np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = self.num_nodes
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("edge destinations out of range [0, num_nodes)")
        if self.edge_data is not None:
            self.edge_data = np.ascontiguousarray(self.edge_data)
            if self.edge_data.shape[0] != self.indices.size:
                raise ValueError("edge_data must have one entry per edge")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def is_weighted(self) -> bool:
        return self.edge_data is not None

    def out_degree(self, node: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degree of ``node``, or of every node when ``node`` is None."""
        degrees = np.diff(self.indptr)
        if node is None:
            return degrees
        if np.isscalar(node):
            return int(degrees[node])
        return degrees[np.asarray(node)]

    def in_degree(self) -> np.ndarray:
        """In-degree of every node (one pass over the edge array)."""
        return np.bincount(self.indices, minlength=self.num_nodes).astype(np.int64)

    def neighbors(self, node: int) -> np.ndarray:
        """Destinations of the outgoing edges of ``node`` (a view)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edge_weights(self, node: int) -> np.ndarray | None:
        if self.edge_data is None:
            return None
        return self.edge_data[self.indptr[node] : self.indptr[node + 1]]

    def edge_sources(self) -> np.ndarray:
        """Source node id per edge, aligned with ``indices``."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays for all edges, in CSR order."""
        return self.edge_sources(), self.indices.copy()

    def nbytes(self) -> int:
        """In-memory footprint (bytes) of the arrays."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.edge_data is not None:
            total += self.edge_data.nbytes
        return total

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src,
        dst,
        num_nodes: int | None = None,
        edge_data=None,
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel ``src``/``dst`` arrays.

        Edges are sorted by (source, destination).  With ``dedup=True``
        duplicate (src, dst) pairs are removed (keeping the first payload).
        Integer columns keep their width until the sorted destinations
        are widened to int64, once.

        Without a payload, equal (src, dst) pairs are identical edges,
        so the sorted values of the fused key (:func:`_edge_key`) fix
        the graph: the key is sorted in place (NumPy's unstable value
        sort, no permutation) and the destinations are its remainders
        mod ``num_nodes``.  Weighted edges, and graphs too large for the
        fused key, are ordered by the stable permutation of
        :func:`_edge_sort_order`, which the payload follows.
        """
        src = _as_integer(src, "src")
        dst = _as_integer(dst, "dst")
        if src.size != dst.size:
            raise ValueError("src and dst must have the same length")
        if num_nodes is None:
            num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0
        if src.size and (src.min() < 0 or int(src.max()) >= num_nodes):
            raise ValueError("edge sources out of range")
        if src.size and (dst.min() < 0 or int(dst.max()) >= num_nodes):
            raise ValueError("edge destinations out of range")
        data = None
        if edge_data is not None:
            data = np.ascontiguousarray(edge_data)
            if data.shape[0] != src.size:
                raise ValueError("edge_data must have one entry per edge")
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        if not dedup:
            # Row lengths do not depend on edge order, so the src column
            # is counted as it came (one gather saved), before the sort
            # key and permutation exist.
            np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        if data is None and num_nodes < _MAX_COMPOSITE_NODES:
            indices = _sorted_destinations(src, dst, num_nodes, dedup, indptr)
            return cls(indptr=indptr, indices=indices)
        order = _edge_sort_order(src, dst, num_nodes)
        dst = dst[order]
        if data is not None:
            data = data[order]
        if dedup:
            src = src[order]
            keep = np.ones(src.size, dtype=bool)
            np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
            src, dst = src[keep], dst[keep]
            if data is not None:
                data = data[keep]
            np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(indptr=indptr, indices=dst, edge_data=data)

    @classmethod
    def empty(cls, num_nodes: int) -> "CSRGraph":
        """A graph with ``num_nodes`` vertices and no edges."""
        return cls(
            indptr=np.zeros(num_nodes + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """The reverse graph (in-memory transpose; CSR -> CSC view).

        A stable group-by over destinations, no per-edge Python work:
        O(V + E) up to 65 536 nodes (:func:`stable_group_order`'s radix
        path), a timsort of the destination column beyond.
        """
        n = self.num_nodes
        in_deg = np.bincount(self.indices, minlength=n)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_deg, out=new_indptr[1:])
        order = stable_group_order(self.indices, n)
        new_indices = self.edge_sources()[order]
        new_data = None if self.edge_data is None else self.edge_data[order]
        return CSRGraph(indptr=new_indptr, indices=new_indices, edge_data=new_data)

    def symmetrize(self) -> "CSRGraph":
        """Undirected version: union of edges and reverse edges, deduplicated.

        Used for connected components, which the paper runs on symmetric
        versions of the graphs (§V-A).
        """
        src, dst = self.edges()
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        data = None
        if self.edge_data is not None:
            data = np.concatenate([self.edge_data, self.edge_data])
        return CSRGraph.from_edges(
            all_src, all_dst, num_nodes=self.num_nodes, edge_data=data, dedup=True
        )

    def with_uniform_weights(self, value=1) -> "CSRGraph":
        """Copy of the graph with every edge weight set to ``value``."""
        return CSRGraph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            edge_data=np.full(self.num_edges, value, dtype=np.int64),
        )

    def with_random_weights(self, low: int = 1, high: int = 100, seed: int = 0) -> "CSRGraph":
        """Copy with integer edge weights drawn uniformly from [low, high)."""
        rng = np.random.default_rng(seed)
        return CSRGraph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            edge_data=rng.integers(low, high, size=self.num_edges, dtype=np.int64),
        )

    def subgraph_rows(self, start: int, stop: int) -> "CSRGraph":
        """CSR slice containing the outgoing edges of nodes [start, stop).

        Node ids are preserved (the result still has ``num_nodes`` rows);
        rows outside the range are empty.  This mirrors how a CuSP host
        holds the contiguous block of the edge array it read from disk.
        """
        if not (0 <= start <= stop <= self.num_nodes):
            raise ValueError("invalid node range")
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        indptr[start : stop + 1] = self.indptr[start : stop + 1] - lo
        indptr[stop + 1 :] = indptr[stop]
        data = None if self.edge_data is None else self.edge_data[lo:hi]
        return CSRGraph(indptr=indptr, indices=self.indices[lo:hi], edge_data=data)

    # ------------------------------------------------------------------
    # Comparison / debugging
    # ------------------------------------------------------------------
    def edge_set(self) -> set[tuple[int, int]]:
        """Edges as a Python set (testing helper; O(E) memory)."""
        src, dst = self.edges()
        return set(zip(src.tolist(), dst.tolist()))

    def __eq__(self, other) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        ):
            return False
        if (self.edge_data is None) != (other.edge_data is None):
            return False
        if self.edge_data is not None:
            return np.array_equal(self.edge_data, other.edge_data)
        return True

    def __repr__(self) -> str:
        w = ", weighted" if self.is_weighted else ""
        return f"CSRGraph(|V|={self.num_nodes}, |E|={self.num_edges}{w})"
