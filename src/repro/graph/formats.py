"""On-disk graph formats and converters.

CuSP consumes graphs stored on disk in CSR or CSC binary form and "provides
converters between these and other graph formats like edge-lists"
(paper §III-A).  This module implements:

* ``.gr``-style binary CSR files (modeled on the Galois format: a fixed
  header followed by the row-pointer and destination arrays, plus optional
  edge data),
* whitespace edge-list text files,
* METIS adjacency text files (1-indexed, undirected),

and converters among them.  The binary reader can load just a slice of the
edge array, which is how the graph-reading phase gives each simulated host
its contiguous chunk without materializing the whole file per host.
"""

from __future__ import annotations

import io
import os
import struct
from pathlib import Path

import numpy as np

from .csr import CSRGraph

__all__ = [
    "write_gr",
    "read_gr",
    "read_gr_header",
    "read_gr_slice",
    "gr_file_size",
    "write_edgelist",
    "read_edgelist",
    "write_metis",
    "read_metis",
    "convert",
    "GRHeader",
]

_GR_MAGIC = b"CUSPGR01"
_HEADER_STRUCT = struct.Struct("<8sQQB7x")  # magic, num_nodes, num_edges, flags
_FLAG_WEIGHTED = 1


class FormatError(ValueError):
    """Raised for malformed or truncated graph files."""


class GRHeader:
    """Parsed header of a binary ``.gr`` file."""

    __slots__ = ("num_nodes", "num_edges", "weighted")

    def __init__(self, num_nodes: int, num_edges: int, weighted: bool):
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.weighted = weighted

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"GRHeader(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"weighted={self.weighted})"
        )


def write_gr(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` to ``path`` in binary CSR form."""
    flags = _FLAG_WEIGHTED if graph.is_weighted else 0
    with open(path, "wb") as f:
        f.write(_HEADER_STRUCT.pack(_GR_MAGIC, graph.num_nodes, graph.num_edges, flags))
        f.write(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
        f.write(np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
        if graph.is_weighted:
            f.write(np.ascontiguousarray(graph.edge_data, dtype=np.int64).tobytes())


def read_gr_header(f: io.BufferedReader) -> GRHeader:
    """Parse the header at the start of ``f`` and hold its counts
    against the file's size, so that no reader sizes a read or an
    allocation by a count the file cannot back (a corrupt header may
    claim 2**64 - 1 edges)."""
    raw = f.read(_HEADER_STRUCT.size)
    if len(raw) != _HEADER_STRUCT.size:
        raise FormatError("truncated gr header")
    magic, n, m, flags = _HEADER_STRUCT.unpack(raw)
    if magic != _GR_MAGIC:
        raise FormatError(f"bad magic {magic!r}; not a gr file")
    weighted = bool(flags & _FLAG_WEIGHTED)
    need = _HEADER_STRUCT.size + 8 * ((n + 1) + m * (2 if weighted else 1))
    have = f.seek(0, os.SEEK_END)
    f.seek(_HEADER_STRUCT.size)
    if need > have:
        raise FormatError(
            f"truncated gr payload: the header's {n} nodes and {m} edges "
            f"take {need} bytes, the file has {have}"
        )
    return GRHeader(n, m, weighted)


def read_gr(path: str | os.PathLike) -> CSRGraph:
    """Load an entire binary CSR file."""
    with open(path, "rb") as f:
        header = read_gr_header(f)
        indptr = _read_array(f, header.num_nodes + 1)
        indices = _read_array(f, header.num_edges)
        data = _read_array(f, header.num_edges) if header.weighted else None
    return CSRGraph(indptr=indptr, indices=indices, edge_data=data)


def read_gr_slice(
    path: str | os.PathLike, node_start: int, node_stop: int
) -> tuple[GRHeader, np.ndarray, np.ndarray, np.ndarray | None]:
    """Read only the rows [node_start, node_stop) from a binary CSR file.

    Returns ``(header, indptr_slice, indices_slice, edge_data_slice)`` where
    ``indptr_slice`` has ``node_stop - node_start + 1`` entries in *global*
    edge coordinates.  This is what one simulated host reads from "disk".
    """
    with open(path, "rb") as f:
        header = read_gr_header(f)
        if not (0 <= node_start <= node_stop <= header.num_nodes):
            raise ValueError("node range out of bounds")
        base = _HEADER_STRUCT.size
        f.seek(base + node_start * 8)
        indptr_slice = _read_array(f, node_stop - node_start + 1)
        edge_lo = int(indptr_slice[0])
        edge_hi = int(indptr_slice[-1])
        if not (0 <= edge_lo <= edge_hi <= header.num_edges):
            raise FormatError(
                f"corrupt row pointers: rows [{node_start}, {node_stop}) span "
                f"edges [{edge_lo}, {edge_hi}) of {header.num_edges}"
            )
        indices_base = base + (header.num_nodes + 1) * 8
        f.seek(indices_base + edge_lo * 8)
        indices_slice = _read_array(f, edge_hi - edge_lo)
        data_slice = None
        if header.weighted:
            data_base = indices_base + header.num_edges * 8
            f.seek(data_base + edge_lo * 8)
            data_slice = _read_array(f, edge_hi - edge_lo)
    return header, indptr_slice, indices_slice, data_slice


def gr_file_size(graph: CSRGraph) -> int:
    """Bytes the graph occupies in the binary format (Table III column)."""
    size = _HEADER_STRUCT.size + (graph.num_nodes + 1) * 8 + graph.num_edges * 8
    if graph.is_weighted:
        size += graph.num_edges * 8
    return size


def _read_array(f, count: int) -> np.ndarray:
    """``count`` int64s from ``f``; the caller has checked ``count``
    against the file, so the read is bounded by the file's size."""
    raw = f.read(count * 8)
    if len(raw) != count * 8:
        raise FormatError("truncated gr payload")
    return np.frombuffer(raw, dtype=np.int64).copy()


# ----------------------------------------------------------------------
# Edge-list text format
# ----------------------------------------------------------------------

def write_edgelist(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``src dst [weight]`` lines."""
    src, dst = graph.edges()
    with open(path, "w") as f:
        if graph.is_weighted:
            for s, d, w in zip(src.tolist(), dst.tolist(), graph.edge_data.tolist()):
                f.write(f"{s} {d} {w}\n")
        else:
            for s, d in zip(src.tolist(), dst.tolist()):
                f.write(f"{s} {d}\n")


def read_edgelist(
    path: str | os.PathLike, num_nodes: int | None = None, weighted: bool = False
) -> CSRGraph:
    """Parse an edge-list file; ``#``-prefixed lines are comments."""
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[int] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise FormatError(f"{path}:{lineno}: expected 'src dst [w]'")
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
                if weighted:
                    weights.append(int(parts[2]) if len(parts) > 2 else 1)
            except (ValueError, IndexError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    data = np.array(weights, dtype=np.int64) if weighted else None
    return CSRGraph.from_edges(
        np.array(srcs, dtype=np.int64),
        np.array(dsts, dtype=np.int64),
        num_nodes=num_nodes,
        edge_data=data,
    )


# ----------------------------------------------------------------------
# METIS adjacency text format (undirected, 1-indexed)
# ----------------------------------------------------------------------

def write_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the symmetrized graph in METIS adjacency format.

    METIS counts each undirected edge once in the header; self-loops are
    dropped (METIS disallows them).
    """
    sym = graph.symmetrize()
    src, dst = sym.edges()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    undirected = int(src.size) // 2
    with open(path, "w") as f:
        f.write(f"{sym.num_nodes} {undirected}\n")
        indptr = np.zeros(sym.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=sym.num_nodes), out=indptr[1:])
        for v in range(sym.num_nodes):
            nbrs = dst[indptr[v] : indptr[v + 1]] + 1
            f.write(" ".join(map(str, nbrs.tolist())) + "\n")


def read_metis(path: str | os.PathLike) -> CSRGraph:
    """Parse a METIS adjacency file into a (symmetric) directed graph."""
    with open(path) as f:
        header = f.readline().split()
        if len(header) < 2:
            raise FormatError(f"{path}: malformed METIS header")
        n = int(header[0])
        srcs: list[int] = []
        dsts: list[int] = []
        for v in range(n):
            line = f.readline()
            if line == "":
                raise FormatError(f"{path}: expected {n} adjacency lines")
            for tok in line.split():
                srcs.append(v)
                dsts.append(int(tok) - 1)
    return CSRGraph.from_edges(
        np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), num_nodes=n
    )


# ----------------------------------------------------------------------
# Generic converter
# ----------------------------------------------------------------------

_READERS = {".gr": read_gr, ".el": read_edgelist, ".metis": read_metis}
_WRITERS = {".gr": write_gr, ".el": write_edgelist, ".metis": write_metis}


def convert(src_path: str | os.PathLike, dst_path: str | os.PathLike) -> CSRGraph:
    """Convert between formats, dispatching on file extension.

    Recognized extensions: ``.gr`` (binary CSR), ``.el`` (edge list),
    ``.metis`` (METIS adjacency).  Returns the loaded graph.
    """
    src_ext = Path(src_path).suffix
    dst_ext = Path(dst_path).suffix
    if src_ext not in _READERS:
        raise ValueError(f"unknown input format {src_ext!r}")
    if dst_ext not in _WRITERS:
        raise ValueError(f"unknown output format {dst_ext!r}")
    graph = _READERS[src_ext](src_path)
    _WRITERS[dst_ext](graph, dst_path)
    return graph
