"""End-to-end integration: the complete downstream-user workflow.

generate -> write to disk -> convert formats -> partition from disk ->
save partitions -> reload -> run every application -> verify against
references -> compare against every baseline.  One test class per stage
plus a whole-pipeline test.
"""

import numpy as np
import pytest

from repro.analytics import (
    BFS,
    ConnectedComponents,
    Engine,
    PageRank,
    SSSP,
    bfs_reference,
    cc_reference,
    default_source,
    pagerank_reference,
    sssp_reference,
)
from repro.baselines import MultilevelPartitioner, XtraPulp, hash_partition
from repro.core import CuSP, load_partitions, save_partitions, window_policy
from repro.graph import (
    convert,
    read_edgelist,
    read_gr,
    webcrawl_like,
    write_gr,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A populated on-disk workspace shared by the pipeline stages."""
    root = tmp_path_factory.mktemp("pipeline")
    graph = webcrawl_like(2500, avg_degree=12, seed=21)
    write_gr(graph, root / "crawl.gr")
    return root, graph


class TestFullPipeline:
    def test_format_conversions_chain(self, workspace):
        root, graph = workspace
        convert(root / "crawl.gr", root / "crawl.el")
        convert(root / "crawl.el", root / "crawl2.gr")
        assert read_gr(root / "crawl2.gr").edge_set() == graph.edge_set()

    def test_partition_save_reload_run_everything(self, workspace):
        root, graph = workspace
        dg = CuSP(6, "CVC").partition(root / "crawl.gr")
        dg.validate(graph)
        save_partitions(dg, root / "parts")
        loaded = load_partitions(root / "parts")
        loaded.validate(graph)

        source = default_source(graph)
        engine = Engine(loaded)
        bfs = engine.run(BFS(source))
        assert np.array_equal(bfs.values, bfs_reference(graph, source))
        pr = engine.run(PageRank())
        assert np.allclose(pr.values, pagerank_reference(graph), atol=5e-4)

        sym = graph.symmetrize()
        sym_dg = CuSP(6, "CVC").partition(sym)
        cc = Engine(sym_dg).run(ConnectedComponents())
        assert np.array_equal(cc.values, cc_reference(sym))

        weighted = graph.with_random_weights(seed=21)
        w_dg = CuSP(6, "CVC").partition(weighted)
        sssp = Engine(w_dg).run(SSSP(source))
        assert np.array_equal(sssp.values, sssp_reference(weighted, source))

    def test_every_partitioner_agrees_on_bfs(self, workspace):
        """The answer must be partitioner-independent — the strongest
        cross-system consistency check in the suite."""
        _, graph = workspace
        source = default_source(graph)
        expected = bfs_reference(graph, source)
        partitioners = {
            "EEC": lambda: CuSP(4, "EEC").partition(graph),
            "SVC": lambda: CuSP(4, "SVC", sync_rounds=3).partition(graph),
            "HDRF": lambda: CuSP(4, "HDRF").partition(graph),
            "window": lambda: CuSP(4, window_policy(8)).partition(graph),
            "xtrapulp": lambda: XtraPulp(4).partition(graph),
            "multilevel": lambda: MultilevelPartitioner(4).partition(graph),
            "hash": lambda: hash_partition(graph, 4),
        }
        for name, build in partitioners.items():
            dg = build()
            dg.validate(graph)
            res = Engine(dg).run(BFS(source))
            assert np.array_equal(res.values, expected), name

    def test_quality_ordering_sanity(self, workspace):
        """Structure-aware partitioners should not cut worse than hash."""
        from repro.metrics import cut_fraction

        _, graph = workspace
        hash_cut = cut_fraction(graph, hash_partition(graph, 4).masters)
        for build in (XtraPulp(4), MultilevelPartitioner(4)):
            cut = cut_fraction(graph, build.partition(graph).masters)
            assert cut <= hash_cut + 0.02
