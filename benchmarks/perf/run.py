#!/usr/bin/env python3
"""The repo's one benchmark: four partition workloads, measured from outside.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed 34]
        [--rounds 5] [--seconds S] [--trace {0,1}] [--out FILE]
        [--trace-out FILE] [--quick] [--write-reference]

Generates the input graph once from ``--seed``, hands the program only
the generated ``.gr`` file, and runs every selected workload:

* the **end-to-end pass** (skipped by ``--trace 1``): ``--rounds``
  rounds, each visiting every workload once, in order, each visit in a
  fresh subprocess (``worker.py``) that spends ``--seconds / --rounds``
  on timed, verified ``CuSP.partition`` calls, each next to a sample of
  a fixed calibration kernel.  ``partition_s`` is the second-best over
  rounds of (the round's median call / the round's median calibration
  sample), scaled back to seconds: the machine drifts between speed
  regimes that outlast a visit, and the calibration kernel drifts with
  it.
* the **traced pass** (skipped by ``--trace 0``): one more subprocess
  per workload that alternates recorder-off and recorder-on calls for
  ``--seconds``, plus the layer kernel pass (``kernels.py``).

The harness itself runs in a forked child of this command, which stays
behind as a child subreaper (``supervise.py``) and returns only once
every process the run started has ended.

Prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero if
any operation failed.  See README.md for what each metric means and
which later change it is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from supervise import supervised
from workloads import (
    AVG_DEGREE,
    DEFAULT_SEED,
    FAILURE_RATE,
    HERE,
    NUM_HOSTS,
    NUM_NODES,
    QUICK_NUM_NODES,
    REFERENCE_JSON,
    ROOT,
    WORKLOADS,
    add_src_to_path,
    load_benchmark_json,
)

#: A visit that outlives its measuring time by this much is killed, with
#: its process group, and the run is abandoned.
VISIT_TIMEOUT_S = 120.0
DEFAULT_ROUNDS = 5
#: What a workload's result must reproduce: across executors (a
#: ``*_process`` workload against its serial twin) and, on the reference
#: graph, across commits (``reference.json``).
PINNED = ("digest", "sim_partition_s", "comm_bytes")
#: What the calibration kernel usually takes on the 2-vCPU box the
#: baseline was recorded on; it only fixes the scale of calibrated
#: seconds, so that they read like wall-clock seconds there.
CALIBRATION_NOMINAL_S = 0.0275


# ----------------------------------------------------------------------
# Running visits
# ----------------------------------------------------------------------
class VisitFailed(RuntimeError):
    """A visit crashed, hung, or left nothing to compute metrics from."""


def visit(name: str, graph_path: Path, seconds: float, *, traced: bool = False,
          check: bool = False, trace_out: str | None = None) -> dict:
    """Run one ``worker.py`` subprocess and return its result record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--graph", str(graph_path), "--seconds", repr(seconds),
        "--t0", repr(time.time()),
    ]
    if traced:
        cmd.append("--traced")
    if check:
        cmd.append("--check")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # Its own session, so that a timeout can take the executor's pool
    # workers down together with the visit that forked them.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=seconds + VISIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise VisitFailed(
            f"{name}: no result within {seconds + VISIT_TIMEOUT_S:.0f} s"
        ) from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            sweep_segments(proc.pid)
    if proc.returncode != 0:
        raise VisitFailed(f"{name}: worker exited with {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise VisitFailed(f"{name}: worker printed no JSON result") from None


def sweep_segments(pid: int) -> None:
    """Unlink the shared-memory segments a killed visit could not.

    ``repro.runtime.colfab`` names every segment of a process family
    ``repro-<pid of the process that imported it, in hex>-...``.
    """
    try:
        for name in os.listdir("/dev/shm"):
            if name.startswith(f"repro-{pid:x}-"):
                os.unlink(os.path.join("/dev/shm", name))
    except OSError:
        pass


def round_medians(visits: list[dict], key: str = "samples") -> list[float]:
    return [statistics.median(v[key]) for v in visits if v["samples"]]


def calibrated_round_medians(visits: list[dict]) -> list[float]:
    """Each round's median partition time, at nominal machine speed.

    A round's median is divided by the median of the calibration kernel
    timed next to its samples (``worker.make_calibration``) and scaled
    by the kernel's nominal time, so a round that met a slow machine
    regime reads like one that did not.
    """
    return [
        CALIBRATION_NOMINAL_S * raw / kernel
        for raw, kernel in zip(round_medians(visits),
                               round_medians(visits, "calibration"))
    ]


def second_best(values: list[float]) -> float:
    """The second-smallest value (the only one, if there is only one).

    The estimator behind every timing metric.  A round's samples share
    one machine regime, so the best rounds are the ones that met no
    contention; but a round of ``svc_process`` holds only 2-3 calls, and
    the very best round is then too often a lucky outlier.  Over two
    sets of ten single-workload runs the second-best of five spread by
    1-3 % (5 % on ``svc_process``) where the best spread by 2-3 %
    (6-10 %) and the median round by 2-4 % (3-8 %).
    """
    ordered = sorted(values)
    return ordered[min(1, len(ordered) - 1)]


def partition_seconds(visits: list[dict]) -> float:
    """``partition_s``: second-best calibrated round median."""
    return second_best(calibrated_round_medians(visits))


# ----------------------------------------------------------------------
# Turning visits into metrics
# ----------------------------------------------------------------------
def end_to_end(visits: list[dict], attempted: int, failed: int) -> dict:
    """The end-to-end metrics of one workload, with each round's value."""
    good = [v for v in visits if v["samples"]]
    quality = [v["replication_factor"] for v in good if "replication_factor" in v]
    if not quality:
        raise VisitFailed("no verified result to compute the metrics from")
    medians = calibrated_round_medians(good)
    edges = good[0]["num_edges"]
    rounds = {
        "partition_s": medians,
        "edges_per_s": [edges / m for m in medians],
        "peak_rss_mb": [v["peak_rss_mb"] for v in good],
        "setup_s": [v["setup_s"] for v in good],
    }
    partition_s = second_best(medians)
    values = {
        "partition_s": partition_s,
        "edges_per_s": edges / partition_s,
        "peak_rss_mb": max(rounds["peak_rss_mb"]),
        "setup_s": min(rounds["setup_s"]),
    }
    out = {k: {"value": values[k], "rounds": v} for k, v in rounds.items()}
    out["partition_s"]["raw_rounds"] = round_medians(good)
    out["partition_s"]["calibration_rounds"] = round_medians(good, "calibration")
    out["failure_rate"] = {"value": failed / attempted}
    out["sim_partition_s"] = {"value": good[0]["sim_partition_s"]}
    out["replication_factor"] = {"value": quality[0]}
    return out


def per_layer(untraced: list[dict], twin: list[dict] | None, traced: dict,
              every_visit: list[dict], harness: dict) -> dict[str, float]:
    """The per-layer metrics of one workload.

    ``untraced`` are the visits whose ``samples`` were timed with the
    recorder off: the end-to-end rounds when that pass ran, otherwise
    the recorder-off half of the traced visit.
    """
    from spans import PHASE_KEYS

    for visits in (untraced, twin or untraced, [traced]):
        if not any(v["samples"] for v in visits):
            raise VisitFailed("no verified call to compute the metrics from")
    if not traced["traced_samples"]:
        raise VisitFailed("no verified traced call")
    out = dict(traced["layers"])
    for phase, key in PHASE_KEYS.items():
        out[f"sim.{key}_s"] = traced["sim_by_phase"][phase]
    out["comm.bytes"] = traced["comm_bytes"]
    out["colfab.leaked_segments"] = max(
        v["leaked_segments"] for v in every_visit
    )
    out["executor.worker_peak_rss_mb"] = traced["worker_peak_rss_mb"]
    out["executor.overhead_ratio"] = (
        partition_seconds(untraced) / partition_seconds(twin) if twin else 1.0
    )
    out["formats.read_gr_s"] = traced["read_gr_s"]
    out.update(harness)

    medians = round_medians(untraced)
    pooled = sorted(s for v in untraced for s in v["samples"])
    out["bench.ops"] = len(pooled)
    out["bench.partition_s_raw"] = second_best(medians)
    out["bench.calibration_s"] = statistics.median(
        round_medians(untraced, "calibration")
    )
    out["bench.partition_s_p50_pooled"] = statistics.median(pooled)
    out["bench.partition_s_p90_pooled"] = (
        statistics.quantiles(pooled, n=10)[8] if len(pooled) > 1 else pooled[0]
    )
    out["bench.rounds_spread"] = max(medians) / min(medians)
    out["bench.cold_partition_s"] = min(
        v["cold_partition_s"] for v in untraced if v["samples"]
    )
    out["trace.overhead_ratio"] = (
        statistics.median(traced["traced_samples"])
        / statistics.median(traced["samples"])
    )
    return out


def pinned_mismatches(visits: list[dict], want: dict, against: str) -> list[str]:
    return [
        f"{v['workload']}: {key} {v[key]!r} != {against}'s {want[key]!r}"
        for v in visits for key in PINNED if v[key] != want[key]
    ]


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        shm = os.statvfs("/dev/shm")
        shm_free_mb = shm.f_bavail * shm.f_frsize / 2**20
    except OSError:
        shm_free_mb = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "dev_shm_free_mb": shm_free_mb,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all four, interleaved")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload and pass, split "
                             "evenly over the rounds "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: traced pass only; "
                             "default: both")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--trace-out",
                        help="dump each workload's spans as Chrome-trace "
                             "JSON to FILE with the workload's name inserted")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test the harness: 6k-node graph, one "
                             "2-second round; compare.py rejects the result")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's digests in reference.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.write_reference and (args.workload or args.quick):
        parser.error("--write-reference needs all four workloads on the "
                     "full-size graph")
    return args


def measure(args, names: list[str], nodes: int, rounds: int, seconds: float,
            work_dir: Path):
    """Generate the graph into ``work_dir`` and make every visit.

    Returns ``(untraced, traced, harness)``: per workload the visits
    whose ``samples`` were timed with the recorder off (the end-to-end
    rounds, or the traced visit itself when there are none), the traced
    visit, and the metrics the harness process measured on its own.
    """
    import kernels
    from repro.graph import webcrawl_like
    from repro.graph.formats import write_gr

    want_e2e, want_layers = args.trace != 1, args.trace != 0
    round_seconds = seconds / rounds
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    harness: dict[str, float] = {}
    graph_path = work_dir / "graph.gr"
    t = time.perf_counter()
    graph = webcrawl_like(nodes, avg_degree=AVG_DEGREE, seed=args.seed)
    harness["generators.webcrawl_like_s"] = time.perf_counter() - t
    t = time.perf_counter()
    write_gr(graph, graph_path)
    harness["formats.write_gr_s"] = time.perf_counter() - t

    # A process workload is checked against its serial twin.  When
    # the twin is not being measured anyway, visit it once: timed
    # only if the executor overhead ratio is wanted.
    for name in names:
        twin = WORKLOADS[name].twin
        if twin is not None and twin not in untraced:
            untraced[twin] = [visit(
                twin, graph_path, round_seconds if want_layers else 0.0
            )]
    if want_e2e:
        for r in range(rounds):
            for name in names:
                untraced[name].append(
                    visit(name, graph_path, round_seconds, check=r == 0)
                )
    if want_layers:
        for name in names:
            trace_out = None
            if args.trace_out:
                path = Path(args.trace_out)
                trace_out = str(path.with_suffix(f".{name}{path.suffix}"))
            traced[name] = visit(
                name, graph_path, seconds, traced=True,
                check=not want_e2e, trace_out=trace_out,
            )
            if not want_e2e:
                untraced[name] = [traced[name]]
        harness.update(kernels.run(graph, args.seed))
    return untraced, traced, harness


def summarize(name: str, untraced: dict[str, list[dict]], traced: dict | None,
              harness: dict, reference: dict | None, want_e2e: bool) -> dict:
    """One workload's result: counts, errors, metrics, pinned values."""
    visits = list(untraced[name])
    if traced is not None and traced is not visits[0]:
        # (with --trace 1 the traced visit *is* the untraced list)
        visits.append(traced)
    errors = [e for v in visits for e in v["errors"]]
    twin = WORKLOADS[name].twin
    if twin is not None:
        errors += untraced[twin][0]["errors"]
        errors += pinned_mismatches(visits, untraced[twin][0], twin)
    if reference is not None:
        errors += pinned_mismatches(
            visits, reference["workloads"][name], "reference.json"
        )
    attempted = sum(v["attempted"] for v in visits)
    failed = sum(v["failed"] for v in visits)
    if errors and not failed:
        # A result that verified against itself but not against its twin
        # or the committed reference: no operation of it counts.
        failed = attempted
    result = {"attempted": attempted, "failed": failed, "errors": errors}
    if want_e2e:
        result["end_to_end"] = end_to_end(untraced[name], attempted, failed)
    if traced is not None:
        result["per_layer"] = {
            key: {"value": value}
            for key, value in per_layer(
                untraced[name], untraced[twin] if twin else None,
                traced, visits, harness,
            ).items()
        }
    result["pinned"] = {key: visits[0][key] for key in PINNED}
    return result


def main(argv: list[str] | None = None) -> int:
    """Parse, then run the harness under ``supervise.supervised``.

    The harness proper is :func:`run_harness`; it runs in a child process so
    that this one can wait for everything it leaves behind (pool workers,
    shared-memory resource trackers) before the command returns, and
    remove the work directory whichever way the harness ended.
    """
    args = parse_args(argv)
    add_src_to_path()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        return supervised(lambda: run_harness(args, Path(tmp)))


def run_harness(args: argparse.Namespace, work_dir: Path) -> int:
    bench = load_benchmark_json()
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    nodes, rounds = NUM_NODES, args.rounds
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.quick:
        nodes, rounds, seconds = QUICK_NUM_NODES, 1, 2.0
    graph_params = {"nodes": nodes, "avg_degree": AVG_DEGREE, "seed": args.seed}
    reference = None
    if REFERENCE_JSON.exists() and not args.write_reference:
        reference = json.loads(REFERENCE_JSON.read_text())
        if reference["graph"] != graph_params:
            reference = None
    try:
        untraced, traced, harness = measure(
            args, names, nodes, rounds, seconds, work_dir
        )
        results = {
            name: summarize(name, untraced, traced.get(name), harness,
                            reference, want_e2e=args.trace != 1)
            for name in names
        }
    except VisitFailed as exc:
        print(f"run abandoned: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"] + [FAILURE_RATE]}
    for name, result in results.items():
        print(f"== {name}: {result['attempted']} operations, "
              f"{result['failed']} failed")
        for section in ("end_to_end", "per_layer"):
            for key, metric in result.get(section, {}).items():
                metric["unit"] = units[key]
                print(f"  {key:<52} {metric['value']:>14.6g} {metric['unit']}")
        for error in result["errors"]:
            print(f"  ERROR {error}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0

    if args.write_reference:
        if not correct:
            print("not writing a reference from a failed run", file=sys.stderr)
            return 1
        REFERENCE_JSON.write_text(json.dumps({
            "graph": graph_params,
            "hosts": NUM_HOSTS,
            "workloads": {n: r["pinned"] for n, r in results.items()},
        }, indent=2) + "\n")
        print(f"reference written to {REFERENCE_JSON}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": 1,
            "quick": args.quick,
            "settings": {
                "graph": graph_params, "hosts": NUM_HOSTS, "rounds": rounds,
                "seconds": seconds, "workloads": names, "trace": args.trace,
            },
            "fingerprint": fingerprint(),
            "workloads": results,
        }, indent=2) + "\n")

    # The driver's contract: the declared metrics of the one workload it
    # asked for, flat; with several workloads, one such object each.
    declared = {
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }
    metrics = {
        name: {
            key: {"value": result[section][key]["value"], "unit": units[key]}
            for section, keys in declared.items() if section in result
            for key in keys
        }
        for name, result in results.items()
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
