"""Tests for the simulated runtime: comm, cost model, cluster, stats."""

import numpy as np
import pytest

from repro.runtime import (
    Communicator,
    CostModel,
    STAMPEDE2,
    SimulatedCluster,
    payload_nbytes,
)


class TestPayloadSizing:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_containers(self):
        assert payload_nbytes([np.zeros(2, np.int64), 3]) == 24
        assert payload_nbytes((1, 2.0)) == 16
        assert payload_nbytes({1: np.zeros(1, np.int64)}) == 16

    def test_scalars_and_str(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes("ab") == 2

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestCommunicator:
    def test_send_recv_roundtrip(self):
        comm = Communicator(3)
        payload = np.arange(5)
        comm.send(0, 2, payload)
        received = comm.recv_all(2)
        assert len(received) == 1
        src, data = received[0]
        assert src == 0
        assert np.array_equal(data, payload)
        assert comm.recv_all(2) == []  # drained

    def test_tags_are_independent(self):
        comm = Communicator(2)
        comm.send(0, 1, 1, tag="a")
        comm.send(0, 1, 2, tag="b")
        assert comm.recv_all(1, tag="a") == [(0, 1)]
        assert comm.recv_all(1, tag="b") == [(0, 2)]

    def test_byte_accounting(self):
        comm = Communicator(2)
        comm.send(0, 1, np.zeros(4, dtype=np.int64))
        assert comm.total_bytes() == 32
        assert comm.host_sent(0) == 32
        assert comm.host_received(1) == 32

    def test_local_send_is_free(self):
        comm = Communicator(2)
        comm.send(1, 1, np.zeros(100, dtype=np.int64))
        assert comm.total_bytes() == 0
        assert comm.total_messages() == 0
        assert len(comm.recv_all(1)) == 1  # still delivered

    def test_nbytes_override(self):
        comm = Communicator(2)
        comm.send(0, 1, np.zeros(100, np.int64), nbytes=8)
        assert comm.total_bytes() == 8

    def test_buffered_message_count(self):
        comm = Communicator(2, buffer_size=100)
        comm.send(0, 1, np.zeros(40, dtype=np.int64))  # 320 bytes
        assert comm.total_messages() == 4  # ceil(320/100)

    def test_unbuffered_uses_logical_messages(self):
        comm = Communicator(2, buffer_size=0)
        comm.send(0, 1, np.zeros(40, dtype=np.int64), logical_messages=25)
        assert comm.total_messages() == 25

    def test_buffered_minimum_one_message(self):
        comm = Communicator(2, buffer_size=1 << 20)
        comm.send(0, 1, np.zeros(1, dtype=np.int64))
        assert comm.total_messages() == 1

    def test_pending(self):
        comm = Communicator(2)
        assert comm.pending(1) == 0
        comm.send(0, 1, 42)
        assert comm.pending(1) == 1

    def test_invalid_host(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.send(0, 5, 1)
        with pytest.raises(ValueError):
            comm.recv_all(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Communicator(0)
        with pytest.raises(ValueError):
            Communicator(2, buffer_size=-1)

    def test_allreduce_sum(self):
        comm = Communicator(3)
        out = comm.allreduce_sum([np.ones(4)] * 3)
        assert np.array_equal(out, np.full(4, 3.0))
        assert comm.collective_events == [("allreduce", 32.0)]

    def test_allreduce_max(self):
        comm = Communicator(2)
        out = comm.allreduce_max([np.array([1, 5]), np.array([3, 2])])
        assert out.tolist() == [3, 5]

    def test_allreduce_wrong_count(self):
        comm = Communicator(3)
        with pytest.raises(ValueError):
            comm.allreduce_sum([np.ones(1)] * 2)

    def test_allgather(self):
        comm = Communicator(2)
        assert comm.allgather([1, 2]) == [1, 2]
        assert comm.collective_events[0][0] == "allgather"

    def test_partners(self):
        comm = Communicator(4)
        comm.send(0, 1, np.ones(1))
        comm.send(2, 0, np.ones(1))
        assert comm.partners(0) == 2  # talks to 1 and 2
        assert comm.partners(3) == 0

    def test_barrier_counted(self):
        comm = Communicator(2)
        comm.barrier()
        comm.barrier()
        assert comm.barriers == 2


class TestCostModel:
    def test_defaults_valid(self):
        STAMPEDE2.validate()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CostModel(disk_read_bw=0).validate()
        with pytest.raises(ValueError):
            CostModel(net_latency=-1).validate()

    def test_disk_time_uncapped(self):
        m = CostModel(disk_read_bw=100, disk_aggregate_bw=1e12)
        assert m.disk_time([200, 100]) == [2.0, 1.0]

    def test_disk_time_aggregate_cap(self):
        # 4 hosts at 100 B/s each would demand 400, cap is 200 -> each gets 50
        m = CostModel(disk_read_bw=100, disk_aggregate_bw=200)
        times = m.disk_time([100, 100, 100, 100])
        assert times == [2.0] * 4

    def test_compute_time(self):
        m = CostModel(compute_rate=1000)
        assert m.compute_time(500) == 0.5

    def test_comm_time_overlaps_send_recv(self):
        m = CostModel(net_bandwidth=100, net_latency=0.0)
        assert m.comm_time(send_bytes=200, recv_bytes=50, messages=0) == 2.0
        assert m.comm_time(send_bytes=50, recv_bytes=200, messages=0) == 2.0

    def test_comm_time_latency(self):
        m = CostModel(net_bandwidth=1e12, net_latency=0.001)
        assert m.comm_time(0, 0, messages=10) == pytest.approx(0.01)

    def test_allreduce_time_zero_cases(self):
        assert STAMPEDE2.allreduce_time(100, 1) == 0.0
        assert STAMPEDE2.allreduce_time(0, 8) == 0.0

    def test_allreduce_scales_with_hosts(self):
        t2 = STAMPEDE2.allreduce_time(1000, 2)
        t16 = STAMPEDE2.allreduce_time(1000, 16)
        assert t16 > t2

    def test_scaled(self):
        m = STAMPEDE2.scaled(net_latency=1e-3)
        assert m.net_latency == 1e-3
        assert m.disk_read_bw == STAMPEDE2.disk_read_bw
        with pytest.raises(ValueError):
            STAMPEDE2.scaled(compute_rate=-5)


class TestCluster:
    def test_phase_records(self):
        c = SimulatedCluster(2)
        with c.phase("reading") as ph:
            ph.add_disk(0, 1000)
            ph.add_compute(1, 500)
        assert len(c.phase_stats) == 1
        assert c.phase_stats[0].name == "reading"

    def test_breakdown_total_positive(self):
        c = SimulatedCluster(2)
        with c.phase("a") as ph:
            ph.add_disk(0, 1e9)
        with c.phase("b") as ph:
            ph.comm.send(0, 1, np.zeros(1000, np.int64))
        bd = c.breakdown()
        assert bd.total > 0
        assert set(bd.by_phase()) == {"a", "b"}
        assert bd.phase("a").disk > 0

    def test_breakdown_slowest_host_dominates(self):
        m = CostModel(disk_read_bw=100, disk_aggregate_bw=1e12)
        c = SimulatedCluster(2, cost_model=m)
        with c.phase("read") as ph:
            ph.add_disk(0, 100)   # 1 s
            ph.add_disk(1, 1000)  # 10 s
        assert c.breakdown().phase("read").total == pytest.approx(10.0)

    def test_unknown_phase_lookup(self):
        c = SimulatedCluster(1)
        with pytest.raises(KeyError):
            c.breakdown().phase("nope")

    def test_comm_bytes_query(self):
        c = SimulatedCluster(2)
        with c.phase("x") as ph:
            ph.comm.send(0, 1, np.zeros(4, np.int64))
        assert c.breakdown().comm_bytes("x") == 32
        assert c.breakdown().comm_bytes() == 32

    def test_reset(self):
        c = SimulatedCluster(1)
        with c.phase("x"):
            pass
        c.reset()
        assert c.phase_stats == []

    def test_closed_phase_releases_its_queues(self):
        """``phase_stats`` keeps every phase for the breakdown; it must
        not keep an aborted (or finished) phase's undelivered blocks."""
        from repro.runtime.colfab import ColumnSchema, MessageBatch
        from repro.runtime.faults import HostCrashError

        block = MessageBatch(
            ColumnSchema((("x", np.int64),)), (np.arange(100),)
        )
        c = SimulatedCluster(2)
        with pytest.raises(HostCrashError):
            with c.phase("aborted") as ph:
                ph.comm.send(0, 1, block, tag="edges")
                assert ph.comm.pending(1, "edges") == 1
                raise HostCrashError(1, 0)
        with c.phase("finished") as ph:
            ph.comm.send(0, 1, block, tag="edges")
        for stats in c.phase_stats:
            assert stats.comm.pending(1, "edges") == 0
            assert stats.comm.sent_bytes[0, 1] == 800  # accounting stays
        assert c.phase_stats[0].failed and not c.phase_stats[1].failed

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_buffer_size_propagates(self):
        c = SimulatedCluster(2, buffer_size=64)
        with c.phase("x") as ph:
            assert ph.comm.buffer_size == 64

    def test_collective_time_in_report(self):
        c = SimulatedCluster(4)
        with c.phase("sync") as ph:
            ph.comm.allreduce_sum([np.zeros(1000)] * 4)
            ph.comm.barrier()
        rep = c.breakdown().phase("sync")
        assert rep.collective > 0

    def test_smaller_buffer_more_messages_more_time(self):
        def run(buf):
            c = SimulatedCluster(2, buffer_size=buf,
                                 cost_model=STAMPEDE2.scaled(net_latency=1e-3))
            with c.phase("send") as ph:
                ph.comm.send(0, 1, np.zeros(1_000_000, np.int64),
                             logical_messages=100_000)
            return c.total_time()

        assert run(0) > run(1024) > run(1 << 20)
