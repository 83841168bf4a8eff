"""Ablation: MPI vs LCI transport (paper §IV-D1 — the communication
thread can use either; LCI's leaner stack lowers per-message overhead).
Also doubles as a window-size sweep for the streaming-window extension."""

from repro.core import CuSP, window_policy
from repro.experiments.common import ExperimentResult
from repro.runtime.cost_model import LCI_TRANSPORT, MPI_TRANSPORT


def test_ablation_transport(benchmark, ctx, record):
    def run():
        rows = []
        g = ctx.graph("uk")
        for name, model in (("MPI", MPI_TRANSPORT), ("LCI", LCI_TRANSPORT)):
            for buffer_size in (0, 8 << 10):
                dg = CuSP(
                    16, "CVC", cost_model=model, buffer_size=buffer_size
                ).partition(g)
                rows.append(
                    {
                        "transport": name,
                        "buffer": "none" if buffer_size == 0 else "8KB",
                        "total ms": dg.breakdown.total * 1e3,
                    }
                )
        return ExperimentResult(
            experiment="Ablation C",
            title="Transport layer (MPI vs LCI) x message buffering (CVC)",
            columns=["transport", "buffer", "total ms"],
            rows=rows,
            notes=[
                "LCI's lower per-message overhead matters most exactly "
                "when buffering is disabled — buffering and a fast "
                "transport are partially substitutable.",
            ],
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(result)
    by = {(r["transport"], r["buffer"]): r["total ms"] for r in result.rows}
    # LCI never slower; its advantage is largest without buffering.
    assert by[("LCI", "none")] <= by[("MPI", "none")]
    assert by[("LCI", "8KB")] <= by[("MPI", "8KB")]
    mpi_gain = by[("MPI", "none")] - by[("MPI", "8KB")]
    lci_gain = by[("LCI", "none")] - by[("LCI", "8KB")]
    assert lci_gain <= mpi_gain


def test_window_size_sweep(benchmark, ctx, record):
    def run():
        rows = []
        # The window's quality leverage shows where proxy presence has
        # not yet saturated: few partitions relative to the clustering
        # structure.  (At higher k every vertex is soon present on
        # several partitions and all placements score alike.)
        from repro.graph import get_dataset

        g = get_dataset("kron", "tiny")
        for window in (1, 8, 64):
            dg = CuSP(
                4, window_policy(window), cost_model=ctx.cost_model
            ).partition(g)
            rows.append(
                {
                    "window": window,
                    "replication": dg.replication_factor(),
                    "edge balance": dg.edge_balance(),
                    "partition ms": dg.breakdown.total * 1e3,
                }
            )
        return ExperimentResult(
            experiment="Ablation D",
            title="Streaming-window size vs quality (ADWISE-style extension)",
            columns=["window", "replication", "edge balance", "partition ms"],
            rows=rows,
            notes=[
                "Larger windows buy lower replication (paper §II-B2). "
                "Partition ms stays flat: the cost model charges every "
                "edge rule 2 units per edge, so the window's rescoring is "
                "wall time the simulated time does not see (ROADMAP "
                "item 5).",
            ],
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(result)
    reps = result.column("replication")
    assert reps[-1] <= reps[0]  # window=64 at least as good as window=1
