"""What the benchmark runs: the input graph, the four workloads, the digest.

Shared by the orchestrator (``run.py``), the per-round subprocess
(``worker.py``) and ``compare.py``; importing it touches nothing but
``BENCHMARK.json``'s location.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = HERE / "reference.json"

#: ``webcrawl_like`` parameters; with seed 34 this is byte-for-byte
#: ``get_dataset("wdc", "bench")``, the graph behind every historical
#: number in BENCH_colfab.json / BENCH_executors.json.
NUM_NODES = 60_000
QUICK_NUM_NODES = 6_000
AVG_DEGREE = 36.1
NUM_HOSTS = 8
DEFAULT_SEED = 34


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    executor: str
    #: Only stateful master rules (SVC's FennelEB) read it.  10 is
    #: Table VI's second point; the default 100 costs 22-25 s per call
    #: under the process pool (see README), which no round could hold.
    sync_rounds: int
    #: The serial workload whose digest and simulated time this one must
    #: reproduce (``None`` for the serial workloads themselves).
    twin: str | None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cvc_serial", "CVC", "serial", 100, None),
        Workload("svc_serial", "SVC", "serial", 10, None),
        Workload("cvc_process", "CVC", "process", 100, "cvc_serial"),
        Workload("svc_process", "SVC", "process", 10, "svc_serial"),
    )
}


def add_src_to_path() -> None:
    """Make ``import repro`` work from a bare checkout (no install step).

    Exits non-zero when the program's sources are not there: a directory
    holding only the benchmark has nothing to measure.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmarks/perf: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


#: The one end-to-end metric BENCHMARK.json cannot declare (a metric
#: there may never be 0; a driver reads ``attempted`` and ``failed``
#: from the result line instead).
FAILURE_RATE = {"name": "failure_rate", "unit": "ratio", "better": "lower",
                "bound": 0.0}


def load_benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def partition_digest(dg) -> str:
    """SHA-256 over every array that defines the partitions.

    Same array set, order and bytes as
    ``scripts/bench_smoke.py::partition_digest``; hashing through the
    buffer protocol only avoids a copy of each array, which would
    otherwise show up in the peak RSS this harness reports.
    """
    import numpy as np

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dg.masters).data)
    for part in dg.partitions:
        for arr in (part.global_ids, part.master_host,
                    part.local_graph.indptr, part.local_graph.indices):
            h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()
