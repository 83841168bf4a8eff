"""Tests for the trace/report rendering and the extended CLI options."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import CuSP, load_partitions
from repro.graph import erdos_renyi, get_dataset, write_gr
from repro.runtime import (
    SimulatedCluster,
    breakdown_to_json,
    render_breakdown,
    render_comparison,
)
from repro.runtime.trace import TRACE_SCHEMA_VERSION


@pytest.fixture(scope="module")
def breakdown():
    g = get_dataset("kron", "tiny")
    return CuSP(4, "CVC").partition(g).breakdown


class TestRenderBreakdown:
    def test_contains_phases_and_total(self, breakdown):
        text = render_breakdown(breakdown, title="T")
        assert text.startswith("T")
        assert "Graph Reading" in text
        assert "TOTAL" in text
        assert "#" in text  # bars present

    def test_empty_breakdown(self):
        c = SimulatedCluster(1)
        text = render_breakdown(c.breakdown())
        assert "no simulated time" in text

    def test_percentages_sum_roughly(self, breakdown):
        text = render_breakdown(breakdown)
        percents = [
            float(line.split("%")[0].split()[-1])
            for line in text.splitlines()
            if "%" in line
        ]
        assert abs(sum(percents) - 100.0) < 1.0


class TestRenderComparison:
    def test_two_runs(self, breakdown):
        text = render_comparison({"a": breakdown, "b": breakdown})
        assert "a" in text and "b" in text

    def test_phase_selector(self, breakdown):
        text = render_comparison({"x": breakdown}, phase="Graph Reading")
        assert "x" in text

    def test_empty(self):
        assert "nothing" in render_comparison({})

    def test_phase_missing_from_one_breakdown(self, breakdown):
        c = SimulatedCluster(2)
        with c.phase("warmup") as ph:
            ph.add_compute(0, 1.0)
        text = render_comparison(
            {"full": breakdown, "warmup-only": c.breakdown()},
            phase="Graph Reading",
        )
        assert "(phase not recorded)" in text
        assert "full" in text and "warmup-only" in text

    def test_phase_missing_from_every_breakdown(self, breakdown):
        text = render_comparison({"x": breakdown}, phase="no-such-phase")
        assert "(phase not recorded)" in text


class TestBreakdownJson:
    def test_roundtrip(self, breakdown):
        doc = json.loads(breakdown_to_json(breakdown, policy="CVC"))
        assert doc["policy"] == "CVC"
        assert len(doc["phases"]) == 5
        assert doc["total_s"] == pytest.approx(breakdown.total)
        for phase in doc["phases"]:
            assert set(phase) >= {"name", "total_s", "comm_bytes"}

    def test_schema_version_and_clean_run_markers(self, breakdown):
        doc = json.loads(breakdown_to_json(breakdown))
        assert doc["schema_version"] == TRACE_SCHEMA_VERSION
        assert doc["failed_phases"] == []
        assert all(phase["failed"] is False for phase in doc["phases"])

    def test_aborted_phase_is_marked(self):
        c = SimulatedCluster(2)
        with c.phase("ok-phase") as ph:
            ph.add_compute(0, 1.0)
        with pytest.raises(RuntimeError):
            with c.phase("doomed-phase") as ph:
                ph.add_compute(0, 1.0)
                raise RuntimeError("boom")
        doc = json.loads(breakdown_to_json(c.breakdown()))
        assert doc["failed_phases"] == ["doomed-phase"]
        by_name = {p["name"]: p for p in doc["phases"]}
        assert by_name["doomed-phase"]["failed"] is True
        assert by_name["ok-phase"]["failed"] is False


class TestCliExtensions:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.gr"
        write_gr(erdos_renyi(150, 1500, seed=4), path)
        return path

    def test_partition_save_and_reload(self, graph_file, tmp_path, capsys):
        out = tmp_path / "parts"
        assert main([
            "partition", str(graph_file), "-k", "4", "-p", "CVC",
            "--save", str(out),
        ]) == 0
        assert "partitions written" in capsys.readouterr().out
        loaded = load_partitions(out)
        assert loaded.num_partitions == 4

    def test_partition_trace(self, graph_file, capsys):
        assert main([
            "partition", str(graph_file), "-k", "2", "--trace",
        ]) == 0
        assert "#" in capsys.readouterr().out

    def test_partition_trace_json(self, graph_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "partition", str(graph_file), "-k", "2", "--trace-json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["num_partitions"] == 2

    def test_partition_window_policy(self, graph_file, capsys):
        assert main([
            "partition", str(graph_file), "-k", "2", "-p", "window:8",
        ]) == 0
        assert "size 8" in capsys.readouterr().out

    def test_window_policy_takes_every_cusp_option(self, graph_file,
                                                   tmp_path, capsys):
        """The window is a CuSP policy: the output format, the executor
        and the sanitizer apply to it like to any other."""
        out = tmp_path / "parts"
        assert main([
            "partition", str(graph_file), "-k", "4", "-p", "window:8",
            "--output-format", "csc", "--executor", "process",
            "--commsan", "--save", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "streaming window (size 8)" in text
        assert "5 phase(s) audited" in text
        assert " 0 violation(s)" in text
        loaded = load_partitions(out)
        assert loaded.policy_name == "Window(8)"
        assert all(p.local_csc is not None for p in loaded.partitions)

    def test_partition_xtrapulp(self, graph_file, capsys):
        assert main([
            "partition", str(graph_file), "-k", "2", "-p", "xtrapulp",
        ]) == 0
        assert "XtraPulp" in capsys.readouterr().out

    def test_partition_multilevel(self, graph_file, capsys):
        assert main([
            "partition", str(graph_file), "-k", "2", "-p", "multilevel",
        ]) == 0
        out = capsys.readouterr().out
        assert "multilevel" in out
        assert "no simulated timing" in out
