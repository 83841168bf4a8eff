"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph import erdos_renyi, read_gr, write_gr


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
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "partition", str(graph_file),
             "-k", "2", "-p", spec],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode != 0
        assert f"invalid --policy {spec!r}" in proc.stderr
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
