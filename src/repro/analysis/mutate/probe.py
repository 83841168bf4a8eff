"""In-shadow detector harness: run the full stack, emit JSONL verdicts.

The campaign driver copies ``repro`` into a shadow tree, splices one
mutant in, and runs this module as a subprocess with ``PYTHONPATH``
pointing at the shadow — so ``import repro`` here resolves to the
*mutated* package and every detector (static and dynamic) sees the
mutant exactly as a user install would.

One record per detector is appended to ``--out`` as a JSON line and
flushed immediately, so a hung mutant (killed by the driver's timeout)
still yields the verdicts of every detector that finished.  Records
contain only deterministic material — rule names, anchors, exception
class names, check labels; no timings, no messages with addresses —
because they feed the byte-stable detection matrix.

Detectors, in emission order:

* ``lint`` — the per-module SPMD-safety rules over the whole package
  (strict: unsuppressed warnings count);
* ``deep`` — the whole-program rules, the phase-contract diff
  (``deep-contract``) included (same single ``repro lint`` pass as
  ``lint``, split by the ``deep-`` rule prefix);
* ``dynamic`` — serial fixture partitions under CommSan, checked by the
  partition invariant checker: the two fixtures, the §IV-D5 ablation,
  and two width fixtures whose ids fill a node-id tier.

The module top level imports only the standard library, and the driver
runs this file *by path* (not ``-m``): a mutant that breaks ``import
repro`` at module-evaluation time must not kill the probe before it can
report.  Each detector imports what it needs inside a guard; an
analyzer that cannot even load in the mutated environment reports
``error:<ExceptionName>`` (not caught), while the dynamic tier reports
the import crash as a catch — which it is: any real use of that mutant
dies instantly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, IO

__all__ = ["main", "FIXTURES", "ABLATION_FIXTURE", "WIDTH_FIXTURE_NODES"]

#: (policy, num_hosts, sync_rounds): one stateful+impure master rule
#: (GVC = FennelEB) exercising the request/assignment exchange and the
#: per-round allreduce, one stateful edge rule (HDRF) exercising the
#: edge-assignment reconciliation.
FIXTURES: tuple[tuple[str, int, int], ...] = (("GVC", 4, 3), ("HDRF", 4, 3))

#: Fixture graph: |V|, |E|, seed — big enough to make every host talk,
#: small enough for a per-mutant subprocess.
FIXTURE_GRAPH = (220, 1700, 11)

#: (policy, num_hosts, sync_rounds) for the ablation fixture: a *pure*
#: master rule run with ``elide_master_communication=False``, the only
#: configuration in which the master-broadcast contract op fires.
ABLATION_FIXTURE: tuple[str, int, int] = ("CVC", 4, 3)

#: Node counts of the width fixtures: the top of the uint16 node-id tier
#: and one past it (``repro.graph.csr.node_id_dtype``).  Their edges
#: leave the highest ids, so ids stored one tier too narrow wrap; the
#: 220-node fixture graph never gets past 255.
WIDTH_FIXTURE_NODES: tuple[int, ...] = (1 << 16, (1 << 16) + 1)


def _emit(out: IO[str], record: dict) -> None:
    out.write(json.dumps(record, sort_keys=True) + "\n")
    out.flush()


def _guarded(out: IO[str], names: tuple[str, ...], fn: Callable, *args) -> None:
    """Run one verdict function; on analyzer failure emit error records."""
    try:
        fn(out, *args)
    except Exception as exc:  # noqa: BLE001 — report, don't die
        for name in names:
            _emit(
                out,
                {
                    "detector": name,
                    "caught": False,
                    "findings": [f"error:{type(exc).__name__}"],
                },
            )


def _anchor(rule: str, path: str, line: int) -> str:
    return f"{rule}@{path}:{line}"


def _static_verdicts(out: IO[str], pkg_dir: Path, cache: str | None) -> None:
    from repro.analysis.lint.base import run_lint

    report = run_lint([pkg_dir], root=pkg_dir, cache=cache)
    per_module = [f for f in report.findings if not f.rule.startswith("deep-")]
    deep = [f for f in report.findings if f.rule.startswith("deep-")]
    for name, findings in (("lint", per_module), ("deep", deep)):
        _emit(
            out,
            {
                "detector": name,
                "caught": bool(findings),
                "findings": sorted(
                    _anchor(f.rule, f.path, f.line) for f in findings
                ),
            },
        )


def _dynamic_verdict(out: IO[str]) -> None:
    try:
        import numpy as np

        from repro import CuSP
        from repro.analysis.contracts import ContractViolationError
        from repro.core.validate import check_partition
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import erdos_renyi
    except Exception as exc:  # noqa: BLE001 — an unimportable mutant IS caught
        _emit(
            out,
            {
                "detector": "dynamic",
                "caught": True,
                "findings": [f"crash:{type(exc).__name__}:import"],
            },
        )
        return

    graph = erdos_renyi(*FIXTURE_GRAPH)
    checks: list[str] = []

    def attempt(label: str, fn: Callable):
        try:
            return fn()
        except ContractViolationError:
            checks.append(f"commsan:{label}")
        except Exception as exc:  # noqa: BLE001 — any crash is a catch
            checks.append(f"crash:{type(exc).__name__}:{label}")
        return None

    def run(policy: str, hosts: int, rounds: int, on=graph, **kw):
        with CuSP(
            hosts, policy, sync_rounds=rounds, sanitizer=True, **kw
        ) as cusp:
            return cusp.partition(on)

    for policy, hosts, rounds in FIXTURES:
        serial = attempt(
            f"serial:{policy}", lambda: run(policy, hosts, rounds)
        )
        if serial is not None:
            report = check_partition(serial, graph)
            if report.errors:
                checks.append(f"invariants:{policy}")

    # Ablation fixture: a pure master rule (CVC = Cartesian) with the
    # §IV-D5 elision disabled is the only configuration in which the
    # master-broadcast contract op fires — without it a mutated
    # ``when`` clause on that op is statically *and* dynamically dead
    # (campaign evidence: contract-when #2 survived the elided fixtures).
    ablation = attempt(
        "ablation:CVC",
        lambda: run(*ABLATION_FIXTURE, elide_master_communication=False),
    )
    if ablation is not None:
        report = check_partition(ablation, graph)
        if report.errors:
            checks.append("invariants:ablation:CVC")

    # Width fixtures: CVC over graphs whose ids fill a node-id tier.
    for n in WIDTH_FIXTURE_NODES:
        src = np.arange(n - 600, n, dtype=np.int64)
        wide = CSRGraph.from_edges(src, src * 7919 % n, num_nodes=n)
        label = f"width:{n}"
        dg = attempt(
            label, lambda wide=wide: run(*ABLATION_FIXTURE, on=wide)
        )
        if dg is not None and check_partition(dg, wide).errors:
            checks.append(f"invariants:{label}")
    _emit(
        out,
        {"detector": "dynamic", "caught": bool(checks), "findings": sorted(checks)},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.mutate.probe",
        description="run every detector against the importable repro tree",
    )
    parser.add_argument(
        "--pkg", required=True, help="the repro package directory to analyze"
    )
    parser.add_argument(
        "--out", required=True, help="JSONL verdict file (one line/detector)"
    )
    parser.add_argument(
        "--cache", default=None, help="lint cache file (shared across probes)"
    )
    parser.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic tier (fixture partitions)",
    )
    args = parser.parse_args(argv)

    pkg_dir = Path(args.pkg).resolve()
    with open(args.out, "a") as out:
        _guarded(out, ("lint", "deep"), _static_verdicts, pkg_dir, args.cache)
        if not args.static_only:
            _guarded(out, ("dynamic",), _dynamic_verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
