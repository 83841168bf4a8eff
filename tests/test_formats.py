"""Tests for on-disk formats and converters."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    convert,
    erdos_renyi,
    gr_file_size,
    read_edgelist,
    read_gr,
    read_gr_slice,
    read_metis,
    write_edgelist,
    write_gr,
    write_metis,
)
from repro.graph.formats import FormatError


def sample():
    return CSRGraph.from_edges([0, 0, 1, 3], [1, 2, 3, 0], num_nodes=4)


class TestBinaryGR:
    def test_roundtrip(self, tmp_path):
        g = sample()
        p = tmp_path / "g.gr"
        write_gr(g, p)
        assert read_gr(p) == g

    def test_roundtrip_weighted(self, tmp_path):
        g = sample().with_random_weights(seed=1)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        loaded = read_gr(p)
        assert loaded == g
        assert loaded.is_weighted

    def test_roundtrip_empty(self, tmp_path):
        g = CSRGraph.empty(7)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        assert read_gr(p) == g

    def test_file_size_matches_gr_file_size(self, tmp_path):
        g = erdos_renyi(50, 300, seed=2)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        assert p.stat().st_size == gr_file_size(g)

    def test_slice_read(self, tmp_path):
        g = erdos_renyi(40, 400, seed=3)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        header, indptr, indices, data = read_gr_slice(p, 10, 20)
        assert header.num_nodes == 40
        assert data is None
        assert np.array_equal(indptr, g.indptr[10:21])
        assert np.array_equal(indices, g.indices[g.indptr[10] : g.indptr[20]])

    def test_slice_read_weighted(self, tmp_path):
        g = erdos_renyi(20, 100, seed=4).with_random_weights(seed=4)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        _, indptr, indices, data = read_gr_slice(p, 5, 15)
        assert np.array_equal(data, g.edge_data[g.indptr[5] : g.indptr[15]])

    def test_slice_full_range(self, tmp_path):
        g = sample()
        p = tmp_path / "g.gr"
        write_gr(g, p)
        _, indptr, indices, _ = read_gr_slice(p, 0, g.num_nodes)
        assert np.array_equal(indptr, g.indptr)
        assert np.array_equal(indices, g.indices)

    def test_slice_out_of_bounds(self, tmp_path):
        g = sample()
        p = tmp_path / "g.gr"
        write_gr(g, p)
        with pytest.raises(ValueError):
            read_gr_slice(p, 0, 99)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(b"NOTAGRPH" + b"\x00" * 100)
        with pytest.raises(FormatError):
            read_gr(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "trunc.gr"
        p.write_bytes(b"CU")
        with pytest.raises(FormatError):
            read_gr(p)

    def test_truncated_payload(self, tmp_path):
        g = sample()
        p = tmp_path / "g.gr"
        write_gr(g, p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            read_gr(p)


def _gr_bytes(weighted):
    g = erdos_renyi(12, 40, seed=6)
    if weighted:
        g = g.with_random_weights(seed=6)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.gr")
        write_gr(g, path)
        with open(path, "rb") as f:
            return g, f.read()


_FIXTURES = {weighted: _gr_bytes(weighted) for weighted in (False, True)}


@st.composite
def _mangled_gr(draw):
    """A valid ``.gr`` file after bit flips, a truncation, or a splice
    with the other (weighted/unweighted) valid file."""
    weighted = draw(st.booleans())
    graph, blob = _FIXTURES[weighted]
    data = bytearray(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip":
        # Biased towards the 32-byte header, where the counts live.
        positions = st.one_of(st.integers(0, 31), st.integers(0, len(data) - 1))
        for pos in draw(st.lists(positions, min_size=1, max_size=4)):
            data[pos] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data))):]
    else:
        other = _FIXTURES[not weighted][1]
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + other[draw(st.integers(0, len(other))):]
    return graph, blob, bytes(data)


class TestHostileGR:
    """A ``.gr`` file is outside input: whatever its bytes, a reader
    returns a valid graph or raises ``FormatError``/``ValueError`` —
    never ``OverflowError`` or ``MemoryError``, and never a read or an
    allocation sized by a count the file cannot back."""

    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "g.gr"

    @pytest.mark.parametrize("offset,value", [
        (8, 2**61), (8, 2**64 - 1), (16, 2**64 - 1), (16, 2**40),
    ])
    def test_absurd_header_counts(self, tmp_path, offset, value):
        p = tmp_path / "g.gr"
        write_gr(sample(), p)
        data = bytearray(p.read_bytes())
        struct.pack_into("<Q", data, offset, value)  # num_nodes / num_edges
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="truncated gr payload"):
            read_gr(p)
        with pytest.raises(FormatError, match="truncated gr payload"):
            read_gr_slice(p, 0, 1)

    def test_slice_with_corrupt_row_pointers(self, tmp_path):
        g = erdos_renyi(40, 400, seed=3)
        p = tmp_path / "g.gr"
        write_gr(g, p)
        data = bytearray(p.read_bytes())
        # indptr[10] past the edge array, then past indptr[20].
        for bad in (2**50, int(g.indptr[20]) + 1):
            struct.pack_into("<q", data, 32 + 10 * 8, bad)
            p.write_bytes(bytes(data))
            with pytest.raises(FormatError, match="corrupt row pointers"):
                read_gr_slice(p, 10, 20)

    @settings(max_examples=300, deadline=None)
    @given(case=_mangled_gr())
    def test_fuzzed_file_reads_or_fails_typed(self, fuzz_path, case):
        graph, original, mangled = case
        fuzz_path.write_bytes(mangled)
        try:
            loaded = read_gr(fuzz_path)
        except ValueError:  # FormatError is one; so is a CSRGraph refusal
            loaded = None
        if mangled[: len(original)] == original:
            assert loaded == graph  # trailing bytes are not the graph's
        try:
            header, indptr, indices, data = read_gr_slice(fuzz_path, 2, 9)
        except ValueError:
            return
        assert indptr.size == 8
        assert indices.size == int(indptr[-1] - indptr[0])
        assert (data is not None) == header.weighted
        if data is not None:
            assert data.size == indices.size


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = sample()
        p = tmp_path / "g.el"
        write_edgelist(g, p)
        assert read_edgelist(p, num_nodes=4) == g

    def test_roundtrip_weighted(self, tmp_path):
        g = sample().with_uniform_weights(9)
        p = tmp_path / "g.el"
        write_edgelist(g, p)
        loaded = read_edgelist(p, num_nodes=4, weighted=True)
        assert loaded == g

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("# header\n\n0 1\n1 2\n")
        g = read_edgelist(p)
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_default_weight_is_one(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("0 1\n")
        g = read_edgelist(p, weighted=True)
        assert g.edge_data.tolist() == [1]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("0\n")
        with pytest.raises(FormatError):
            read_edgelist(p)

    def test_non_integer(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("a b\n")
        with pytest.raises(FormatError):
            read_edgelist(p)


class TestMetis:
    def test_roundtrip_symmetric(self, tmp_path):
        g = sample().symmetrize()
        p = tmp_path / "g.metis"
        write_metis(g, p)
        loaded = read_metis(p)
        # self-loops dropped; sample has none
        assert loaded.edge_set() == g.edge_set()

    def test_write_drops_self_loops(self, tmp_path):
        g = CSRGraph.from_edges([0, 0], [0, 1], num_nodes=2)
        p = tmp_path / "g.metis"
        write_metis(g, p)
        loaded = read_metis(p)
        assert (0, 0) not in loaded.edge_set()

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("5\n")
        with pytest.raises(FormatError):
            read_metis(p)

    def test_missing_lines(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("3 1\n2\n")
        with pytest.raises(FormatError):
            read_metis(p)


class TestConvert:
    def test_gr_to_el(self, tmp_path):
        g = sample()
        src = tmp_path / "g.gr"
        dst = tmp_path / "g.el"
        write_gr(g, src)
        returned = convert(src, dst)
        assert returned == g
        assert read_edgelist(dst, num_nodes=4) == g

    def test_el_to_gr(self, tmp_path):
        g = sample()
        src = tmp_path / "g.el"
        dst = tmp_path / "g.gr"
        write_edgelist(g, src)
        convert(src, dst)
        assert read_gr(dst) == g

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            convert(tmp_path / "a.xyz", tmp_path / "b.gr")
        src = tmp_path / "a.gr"
        write_gr(sample(), src)
        with pytest.raises(ValueError):
            convert(src, tmp_path / "b.xyz")
