"""Distributed graph analytics: BSP engine and the paper's applications."""

from .apps import (
    APPS,
    BFS,
    ConnectedComponents,
    INF,
    PageRank,
    SSSP,
    bfs_reference,
    cc_reference,
    default_source,
    pagerank_reference,
    sssp_reference,
)
from .bfs_variants import BFSDirectionOptimizing, BFSPull
from .delta_stepping import DeltaSteppingSSSP
from .engine import AppResult, Engine, VertexProgram

__all__ = [
    "Engine",
    "VertexProgram",
    "AppResult",
    "APPS",
    "BFS",
    "BFSPull",
    "BFSDirectionOptimizing",
    "SSSP",
    "DeltaSteppingSSSP",
    "ConnectedComponents",
    "PageRank",
    "INF",
    "bfs_reference",
    "sssp_reference",
    "cc_reference",
    "pagerank_reference",
    "default_source",
]
