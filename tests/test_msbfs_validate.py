"""Tests for the ``cusp validate`` subcommand."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import CuSP, save_partitions
from repro.graph import erdos_renyi, write_gr


class TestValidateCommand:
    @pytest.fixture()
    def saved(self, tmp_path):
        g = erdos_renyi(120, 900, seed=8)
        path = tmp_path / "g.gr"
        write_gr(g, path)
        dg = CuSP(3, "CVC").partition(g)
        save_partitions(dg, tmp_path / "parts")
        return tmp_path, g

    def test_validate_ok(self, saved, capsys):
        tmp_path, _ = saved
        assert main(["validate", str(tmp_path / "parts"),
                     str(tmp_path / "g.gr")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_without_graph(self, saved, capsys):
        tmp_path, _ = saved
        assert main(["validate", str(tmp_path / "parts")]) == 0

    def test_validate_detects_corruption(self, saved, capsys):
        import numpy as np

        tmp_path, _ = saved
        masters = np.load(tmp_path / "parts" / "masters.npy")
        masters[0] = (masters[0] + 1) % 3  # move a master illegally
        np.save(tmp_path / "parts" / "masters.npy", masters)
        assert main(["validate", str(tmp_path / "parts")]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_detects_wrong_graph(self, saved, tmp_path, capsys):
        root, _ = saved
        other = erdos_renyi(120, 900, seed=9)
        write_gr(other, root / "other.gr")
        assert main(["validate", str(root / "parts"),
                     str(root / "other.gr")]) == 1
