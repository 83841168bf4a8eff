"""One visit to one workload, in a process of its own.

``run.py`` starts this file once per (round, workload) so that every
visit begins with cold caches and a clean ``ru_maxrss``:

    import -> read_gr -> construct CuSP -> one untimed cold partition()
    (the in-run reference) -> partition() calls until --seconds elapse

Every call after the cold one is verified outside its timed span.  With
``--traced`` the calls alternate recorder-off and recorder-on, so both
sides of the tracing-overhead ratio share one machine regime.  The last
line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
import traceback

from workloads import NUM_HOSTS, WORKLOADS, add_src_to_path, partition_digest

add_src_to_path()

import numpy as np  # noqa: E402

import spans  # noqa: E402
from repro.core import CuSP  # noqa: E402
from repro.core.validate import check_partition  # noqa: E402
from repro.graph.formats import read_gr  # noqa: E402
from repro.metrics.quality import measure_quality  # noqa: E402
from repro.runtime import colfab  # noqa: E402

#: Rows of the calibration kernel's input (about 30 ms per call here).
CALIBRATION_ROWS = 250_000

#: The traced pass runs at least this many recorder-off/recorder-on pairs
#: however short ``--seconds`` is.
MIN_TRACED_PAIRS = 5


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_calibration():
    """A fixed single-threaded NumPy kernel timed next to every sample.

    This box drifts between speed regimes that last from seconds to
    minutes, far longer than a visit, so no estimator over a visit's
    own samples can cancel them.  The kernel (stable argsort, gather,
    prefix sum: the primitives the partitioner's own hot paths are made
    of) slows down with the machine; ``run.py`` reports partition time
    relative to it.  Its input never depends on ``--seed``.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 40, size=CALIBRATION_ROWS)

    def calibrate() -> float:
        t = time.perf_counter()
        np.cumsum(keys[np.argsort(keys, kind="stable")])
        return time.perf_counter() - t

    return calibrate


def _signature(dg) -> dict:
    """Everything about a result that must repeat exactly."""
    return {
        "digest": partition_digest(dg),
        "sim_by_phase": dg.breakdown.by_phase(),
        "sim_partition_s": dg.breakdown.total,
        "comm_bytes": dg.breakdown.comm_bytes(),
    }


def _verify(dg, reference: dict) -> str | None:
    got = _signature(dg)
    for key, want in reference.items():
        if got[key] != want:
            return f"{key} differs from the cold call: {got[key]!r} != {want!r}"
    leaked = colfab.leaked_segments()
    if leaked:
        return f"leaked shared-memory segments: {leaked}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--graph", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when run.py started this process")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="also run check_partition and measure_quality")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t = time.perf_counter()
    graph = read_gr(args.graph)
    read_gr_s = time.perf_counter() - t
    cusp = CuSP(
        NUM_HOSTS, workload.policy, executor=workload.executor,
        sync_rounds=workload.sync_rounds, fabric="columnar",
    )
    t = time.perf_counter()
    dg = cusp.partition(graph)
    cold_partition_s = time.perf_counter() - t
    reference = _signature(dg)
    errors: list[str] = []
    failed = 0
    leaked = colfab.leaked_segments()
    if leaked:
        failed += 1
        errors.append(f"cold call leaked segments: {leaked}")
    setup_s = time.time() - args.t0

    recorder = spans.Recorder()
    calibrate = make_calibration()
    samples: list[float] = []      # recorder off
    calibration: list[float] = []  # one per recorder-off call
    traced: list[float] = []       # recorder on

    def one_op(record: bool) -> None:
        nonlocal dg, failed
        dg = None  # the previous result must not count towards this call's RSS
        if record:
            spans.install(recorder)
        else:
            calibration.append(calibrate())
        try:
            t = time.perf_counter()
            with (recorder.span(spans.ROOT_SPAN) if record
                  else contextlib.nullcontext()):
                dg = cusp.partition(graph)
            elapsed = time.perf_counter() - t
        except Exception:
            # One failed operation must not take the other samples of
            # the round with it; it is reported and counted.
            failed += 1
            errors.append(traceback.format_exc())
            return
        finally:
            recorder.uninstall()
        problem = _verify(dg, reference)
        if problem is not None:
            failed += 1
            errors.append(problem)
            return
        (traced if record else samples).append(elapsed)

    start = time.perf_counter()
    if args.traced:
        pairs = 0
        while (pairs < MIN_TRACED_PAIRS
               or time.perf_counter() - start < args.seconds):
            one_op(record=False)
            one_op(record=True)
            pairs += 1
    else:
        while time.perf_counter() - start < args.seconds:
            one_op(record=False)

    # Sampled before the once-per-workload checks below, which allocate.
    peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    worker_peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    out = {}
    if args.check and dg is not None:
        report = check_partition(dg, graph)
        if not report.ok:
            failed += 1
            errors.append("check_partition: " + report.summary())
        out["replication_factor"] = measure_quality(dg, graph).replication_factor
    if args.traced:
        out["traced_samples"] = traced
        out["layers"] = spans.layer_metrics(recorder, max(1, len(traced)))
        if args.trace_out:
            recorder.write_chrome_trace(args.trace_out)
    out.update(
        workload=workload.name,
        num_edges=graph.num_edges,
        setup_s=setup_s,
        read_gr_s=read_gr_s,
        cold_partition_s=cold_partition_s,
        samples=samples,
        calibration=calibration,
        attempted=len(samples) + len(traced) + failed,
        failed=failed,
        errors=errors,
        peak_rss_mb=peak_rss_mb,
        worker_peak_rss_mb=worker_peak_rss_mb,
        leaked_segments=len(colfab.leaked_segments()),
        **reference,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
