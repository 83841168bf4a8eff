"""Micro-benchmarks of the partitioner's hot paths (real wall-clock, via
pytest-benchmark's statistics rather than the simulated cost model)."""

import pytest

from repro.core import CuSP
from repro.graph import get_dataset


@pytest.fixture(scope="module")
def graph():
    return get_dataset("clueweb", "small")


@pytest.fixture(scope="module")
def wdc_graph():
    """The wdc-scale workload the BENCH_*.json numbers are recorded on."""
    return get_dataset("wdc", "bench")


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


@pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
def test_partition_throughput_executor(benchmark, graph, executor):
    """Serial vs thread-pool vs pooled-process execution engine on the
    same workload (the trio recorded in BENCH_executors.json).

    One warm-up round first: the process executor's first barrier pays
    the one-time pool spawn + graph-residency publish, which later
    barriers (and real multi-phase runs) amortize away.  Timed rounds
    measure the warm steady state; BENCH_executors.json records the
    warm best and flags it with ``warmup: true``.
    """
    cusp = CuSP(8, "CVC", executor=executor)
    result = benchmark.pedantic(
        lambda: cusp.partition(graph),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.num_global_edges == graph.num_edges


def test_partition_throughput_fabric(benchmark, wdc_graph):
    """CVC at wdc scale (the "columnar" row of BENCH_colfab.json; its
    "scalar" row was the deleted compatibility fabric).  Warmed for the
    same reason as the executor trio: first-run allocator and page-cache
    effects are not what the JSON records."""
    cusp = CuSP(8, "CVC")
    result = benchmark.pedantic(
        lambda: cusp.partition(wdc_graph),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.num_global_edges == wdc_graph.num_edges


def test_transpose_throughput(benchmark, graph):
    t = benchmark(graph.transpose)
    assert t.num_edges == graph.num_edges
