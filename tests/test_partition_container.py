"""Focused tests for the partition containers and phase internals."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import CuSP, GraphProp, compute_read_ranges, make_policy
from repro.core.assignment_phase import run_edge_assignment
from repro.core.construction_phase import ReceivedEdgeCountError
from repro.core.masters_phase import run_master_assignment
from repro.graph import CSRGraph, erdos_renyi, get_dataset
from repro.runtime import Communicator
from repro.runtime.stats import PhaseStats


@pytest.fixture(scope="module")
def dg_and_graph():
    g = get_dataset("kron", "tiny")
    return CuSP(4, "CVC").partition(g), g


class TestLocalPartition:
    def test_masters_precede_mirrors(self, dg_and_graph):
        dg, _ = dg_and_graph
        for p in dg.partitions:
            assert np.all(p.master_host[: p.num_masters] == p.host)
            if p.num_mirrors:
                assert np.all(p.master_host[p.num_masters :] != p.host)

    def test_global_ids_sorted_within_sections(self, dg_and_graph):
        dg, _ = dg_and_graph
        for p in dg.partitions:
            m = p.master_global_ids
            mi = p.mirror_global_ids
            assert np.all(np.diff(m) > 0)
            if mi.size > 1:
                assert np.all(np.diff(mi) > 0)

    def test_to_local_inverse_of_global_ids(self, dg_and_graph):
        dg, _ = dg_and_graph
        for p in dg.partitions:
            locals_ = p.to_local(p.global_ids)
            assert np.array_equal(locals_, np.arange(p.num_proxies))

    def test_to_local_missing_is_negative(self, dg_and_graph):
        dg, g = dg_and_graph
        for p in dg.partitions:
            absent = np.setdiff1d(np.arange(g.num_nodes), p.global_ids)
            if absent.size:
                assert np.all(p.to_local(absent[:5]) == -1)

    def test_has_proxy_and_is_master(self, dg_and_graph):
        dg, _ = dg_and_graph
        p = dg.partitions[0]
        gid = int(p.master_global_ids[0])
        assert p.has_proxy(gid)
        assert p.is_master(int(p.to_local(np.array([gid]))[0]))

    def test_global_edges_use_proxy_ids(self, dg_and_graph):
        dg, g = dg_and_graph
        for p in dg.partitions:
            src, dst = p.global_edges()
            assert set(src.tolist()) <= set(p.global_ids.tolist())
            assert set(dst.tolist()) <= set(p.global_ids.tolist())


class TestDistributedGraph:
    def test_counts_sum(self, dg_and_graph):
        dg, g = dg_and_graph
        assert dg.edge_counts().sum() == g.num_edges
        assert dg.master_counts().sum() == g.num_nodes

    def test_partition_of_master(self, dg_and_graph):
        dg, _ = dg_and_graph
        for v in (0, 7, 100):
            p = dg.partition_of_master(v)
            assert v in set(p.master_global_ids.tolist())

    def test_to_global_graph_roundtrip(self, dg_and_graph):
        dg, g = dg_and_graph
        assert dg.to_global_graph() == g

    def test_repr_mentions_policy(self, dg_and_graph):
        dg, _ = dg_and_graph
        assert "CVC" in repr(dg)

    def test_validate_catches_bad_master_map(self, dg_and_graph):
        dg, g = dg_and_graph
        saved = dg.masters.copy()
        try:
            dg.masters = (dg.masters + 1) % dg.num_partitions
            with pytest.raises(AssertionError):
                dg.validate()
        finally:
            dg.masters = saved

    def test_balance_on_empty_partitions(self):
        g = CSRGraph.empty(4)
        dg = CuSP(2, "EEC").partition(g)
        assert dg.edge_balance() == 1.0  # no edges anywhere


class TestPhaseInternals:
    def test_master_assignment_covers_all_nodes(self):
        g = erdos_renyi(200, 1500, seed=3)
        prop = GraphProp(g, 4)
        ranges = compute_read_ranges(g, 4)
        phase = PhaseStats("m", 4, Communicator(4))
        ma = run_master_assignment(phase, prop, make_policy("SVC"), ranges,
                                   sync_rounds=3)
        assert ma.masters.min() >= 0
        assert ma.masters.max() < 4

    def test_edge_assignment_to_receive_consistent(self):
        g = erdos_renyi(150, 1200, seed=4)
        prop = GraphProp(g, 4)
        ranges = compute_read_ranges(g, 4)
        phase = PhaseStats("m", 4, Communicator(4))
        policy = make_policy("CVC")
        ma = run_master_assignment(phase, prop, policy, ranges)
        phase2 = PhaseStats("e", 4, Communicator(4))
        ea = run_edge_assignment(phase2, prop, policy, ranges, ma.masters)
        # Row sums = edges each host read; column sums = edges received.
        assert ea.edges_to.sum() == g.num_edges
        assert np.array_equal(ea.to_receive, ea.edges_to.sum(axis=0))

    def test_owner_arrays_within_range(self):
        g = erdos_renyi(100, 900, seed=5)
        prop = GraphProp(g, 5)
        ranges = compute_read_ranges(g, 5)
        phase = PhaseStats("m", 5, Communicator(5))
        policy = make_policy("HVC", degree_threshold=5)
        ma = run_master_assignment(phase, prop, policy, ranges)
        phase2 = PhaseStats("e", 5, Communicator(5))
        ea = run_edge_assignment(phase2, prop, policy, ranges, ma.masters)
        for owners in ea.owners:
            if owners.size:
                assert owners.min() >= 0 and owners.max() < 5

    def test_sync_rounds_validation(self):
        g = erdos_renyi(10, 20, seed=6)
        prop = GraphProp(g, 2)
        ranges = compute_read_ranges(g, 2)
        phase = PhaseStats("m", 2, Communicator(2))
        with pytest.raises(ValueError):
            run_master_assignment(phase, prop, make_policy("EEC"), ranges,
                                  sync_rounds=0)


#: Run under ``python -O``, where ``assert`` statements are stripped:
#: both checks must still fire.
_OPTIMIZED_CHECKS = """
import sys

import numpy as np

from repro.core import CuSP, GraphProp, compute_read_ranges, make_policy
from repro.core.assignment_phase import run_edge_assignment
from repro.core.construction_phase import (
    ReceivedEdgeCountError, run_allocation, run_construction,
)
from repro.core.masters_phase import run_master_assignment
from repro.graph import erdos_renyi
from repro.runtime import Communicator
from repro.runtime.stats import PhaseStats

assert False, "asserts are live: not running under -O"
print("optimize", sys.flags.optimize)
g = erdos_renyi(200, 1600, seed=3)
dg = CuSP(4, "CVC").partition(g)
dg.masters = (dg.masters + 1) % 4
try:
    dg.validate(g)
except AssertionError as exc:
    print("validate raised:", exc)

prop, ranges = GraphProp(g, 4), compute_read_ranges(g, 4)
policy = make_policy("CVC")
masters = run_master_assignment(
    PhaseStats("m", 4, Communicator(4)), prop, policy, ranges
).masters
ea = run_edge_assignment(
    PhaseStats("e", 4, Communicator(4)), prop, policy, ranges, masters
)
proxies = run_allocation(PhaseStats("a", 4, Communicator(4)), prop, ea, masters)
ea.to_receive[2] += 1
try:
    run_construction(
        PhaseStats("c", 4, Communicator(4)), prop, policy, ea, masters, proxies
    )
except ReceivedEdgeCountError as exc:
    print("build raised:", exc.host, exc.expected, exc.received)
"""


class TestChecksSurviveOptimize:
    def test_validate_and_received_count_raise_under_dash_o(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert lines[0] == "optimize 1"
        assert lines[1].startswith("validate raised: ")
        assert "master" in lines[1]
        # Host 2 received what it owns, one fewer than it was told.
        owned = CuSP(4, "CVC").partition(erdos_renyi(200, 1600, seed=3))
        received = owned.partitions[2].num_edges
        assert lines[2] == f"build raised: 2 {received + 1} {received}"

    def test_received_count_error_pickles_with_its_fields(self):
        err = pickle.loads(pickle.dumps(ReceivedEdgeCountError(3, 10, 9)))
        assert (err.host, err.expected, err.received) == (3, 10, 9)
        assert str(err) == (
            "host 3 received 9 edges; edge assignment told it to expect 10"
        )
