"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph import erdos_renyi, read_gr, write_gr


def run_cli(*argv):
    """``python -m repro *argv`` in a subprocess, output captured."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.gr"
    write_gr(erdos_renyi(200, 2000, seed=3), path)
    return path


class TestGenerate:
    def test_kron(self, tmp_path, capsys):
        out = tmp_path / "k.gr"
        assert main(["generate", "kron", str(out), "--scale", "6"]) == 0
        g = read_gr(out)
        assert g.num_nodes == 64
        assert "wrote" in capsys.readouterr().out

    def test_webcrawl(self, tmp_path):
        out = tmp_path / "w.gr"
        assert main(["generate", "webcrawl", str(out), "--nodes", "300",
                     "--degree", "5"]) == 0
        assert read_gr(out).num_edges == 1500

    def test_er(self, tmp_path):
        out = tmp_path / "e.gr"
        assert main(["generate", "er", str(out), "--nodes", "100",
                     "--degree", "4"]) == 0
        assert read_gr(out).num_edges == 400


class TestConvert:
    def test_gr_to_el(self, graph_file, tmp_path, capsys):
        dst = tmp_path / "g.el"
        assert main(["convert", str(graph_file), str(dst)]) == 0
        assert dst.exists()
        assert "converted" in capsys.readouterr().out


class TestInfo:
    def test_info(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "|V|" in out and "200" in out


class TestPartition:
    def test_partition_default(self, graph_file, capsys):
        assert main(["partition", str(graph_file), "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "replication factor" in out
        assert "TOTAL" in out

    def test_partition_cvc_csc(self, graph_file, capsys):
        assert main([
            "partition", str(graph_file), "-k", "4", "-p", "CVC",
            "--output-format", "csc",
        ]) == 0
        assert "Cartesian" in capsys.readouterr().out

    def test_partition_svc_rounds(self, graph_file):
        assert main([
            "partition", str(graph_file), "-k", "2", "-p", "SVC",
            "--sync-rounds", "3",
        ]) == 0

    @pytest.mark.parametrize("spec", ["NOPE", "window:0", "window:x"])
    def test_malformed_policy_is_a_cli_error(self, graph_file, spec):
        proc = run_cli("partition", str(graph_file), "-k", "2", "-p", spec)
        assert proc.returncode != 0
        assert f"invalid --policy {spec!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_policy_is_reported_before_the_graph_is_read(
        self, tmp_path
    ):
        missing = str(tmp_path / "missing.gr")
        proc = run_cli("partition", missing, "-k", "2", "-p", "NOPE")
        assert proc.returncode != 0
        assert "invalid --policy 'NOPE'" in proc.stderr
        assert "cannot read graph" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["dev-null", "truncated", "missing"])
    @pytest.mark.parametrize(
        "command", ["partition", "validate", "info"]
    )
    def test_unreadable_graph_is_a_cli_error(
        self, graph_file, tmp_path, kind, command
    ):
        if kind == "dev-null":
            path = os.devnull
        elif kind == "truncated":
            path = str(tmp_path / "cut.gr")
            with open(path, "wb") as f:
                f.write(graph_file.read_bytes()[:100])
        else:
            path = str(tmp_path / "missing.gr")
        if command == "partition":
            argv = ["partition", path, "-k", "2", "-p", "CVC"]
        elif command == "validate":
            parts = tmp_path / "parts"
            assert main(["partition", str(graph_file), "-k", "2", "-p", "CVC",
                         "--save", str(parts)]) == 0
            argv = ["validate", str(parts), path]
        else:
            argv = ["info", path]
        proc = run_cli(*argv)
        assert proc.returncode != 0
        assert f"cannot read graph {path!r}" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestExperiment:
    def test_known_experiment(self, capsys):
        assert main(["experiment", "table3", "--scale", "tiny"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
