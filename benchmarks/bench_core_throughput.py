"""Micro-benchmarks of the partitioner's hot paths (real wall-clock, via
pytest-benchmark's statistics rather than the simulated cost model)."""

import pytest

from repro.core import CuSP
from repro.graph import get_dataset


@pytest.fixture(scope="module")
def graph():
    return get_dataset("clueweb", "small")


@pytest.mark.parametrize("policy", ["EEC", "HVC", "CVC"])
def test_partition_throughput_stateless(benchmark, graph, policy):
    cusp = CuSP(8, policy)
    result = benchmark(lambda: cusp.partition(graph))
    assert result.num_global_edges == graph.num_edges


def test_partition_throughput_fennel(benchmark, graph):
    cusp = CuSP(8, "SVC", sync_rounds=10)
    result = benchmark.pedantic(
        lambda: cusp.partition(graph), rounds=3, iterations=1
    )
    assert result.num_global_edges == graph.num_edges


def test_transpose_throughput(benchmark, graph):
    t = benchmark(graph.transpose)
    assert t.num_edges == graph.num_edges
