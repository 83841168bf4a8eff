"""Command-line interface: ``cusp`` (or ``python -m repro``).

Subcommands:

``convert``     convert between graph formats (.gr / .el / .metis)
``generate``    write a synthetic graph to disk
``partition``   partition a graph file and report quality + timing
                (``--inject-faults`` exercises crash recovery,
                ``--validate`` runs the full invariant checker,
                ``--resume DIR`` continues an interrupted checkpointed
                run, ``--supervise`` enables straggler mitigation)
``chaos``       run a seeded chaos campaign: N derived fault plans
                spanning the full fault family, each asserted
                bit-identical to the fault-free partition (exit 1 on
                any surviving divergence)
``experiment``  regenerate one of the paper's tables/figures
``info``        print a graph file's Table III properties
``validate``    check a saved partition directory (exit 1 if invalid)
``lint``        run the SPMD-safety lint over Python sources, the
                phase-contract diff included (exit 1 on errors;
                ``--strict`` escalates warnings such as dead contract
                clauses)
``mutate``      run a seeded mutation campaign against the analyzers
                themselves: splice semantic faults into the package and
                assert the detector stack catches them (exit 1 on any
                untriaged survivor; ``--strict`` additionally wants
                >= 90% detection)

``lint``, ``chaos``, ``mutate`` and ``validate`` are all
*checking* subcommands and share one verdict convention
(:func:`_check_exit`): a single summary line — ``OK:`` on stdout with
exit 0, or a failure line on stderr with exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import (
    CheckpointCorruptionError,
    CuSP,
    make_policy,
    policy_names,
    window_policy,
)
from .graph import (
    compute_properties,
    convert,
    erdos_renyi,
    kronecker,
    read_gr,
    webcrawl_like,
    write_gr,
)
from .metrics import measure_quality
from .runtime.executor import EXECUTOR_NAMES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusp",
        description="CuSP: customizable streaming edge partitioner (reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between graph formats")
    p.add_argument("src", help="input file (.gr, .el, .metis)")
    p.add_argument("dst", help="output file (.gr, .el, .metis)")

    p = sub.add_parser("generate", help="write a synthetic graph")
    p.add_argument("kind", choices=["kron", "webcrawl", "er"])
    p.add_argument("out", help="output .gr file")
    p.add_argument("--scale", type=int, default=12, help="kron: log2 nodes")
    p.add_argument("--nodes", type=int, default=10_000)
    p.add_argument("--degree", type=float, default=16.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("partition", help="partition a graph file")
    p.add_argument("graph", help=".gr file to partition")
    p.add_argument("-k", "--partitions", type=int, required=True)
    p.add_argument(
        "-p", "--policy", default="EEC",
        help=(
            f"one of {', '.join(policy_names())}, 'window[:SIZE]' for the "
            "streaming-window policy, or 'xtrapulp'/'multilevel' for "
            "the offline baselines"
        ),
    )
    p.add_argument("--sync-rounds", type=int, default=100)
    p.add_argument("--buffer-size", type=int, default=8 << 20)
    p.add_argument("--degree-threshold", type=int, default=100)
    p.add_argument("--output-format", choices=["csr", "csc"], default="csr")
    p.add_argument("--save", metavar="DIR",
                   help="write the constructed partitions to DIR")
    p.add_argument("--trace", action="store_true",
                   help="render an ASCII phase-breakdown bar chart")
    p.add_argument("--trace-json", metavar="FILE",
                   help="write the phase breakdown as JSON to FILE")
    p.add_argument(
        "--validate", action="store_true",
        help="run the full invariant checker on the result (exit 1 on failure)",
    )
    p.add_argument(
        "--inject-faults", metavar="SPEC",
        help=(
            "inject deterministic faults and recover from them; SPEC is "
            "'@plan.json', inline JSON, or e.g. "
            "'seed=42,send-fail=0.05,drop=0.01,crash=1@2,slow=3:0.5' "
            "(crash=HOST@PHASEINDEX[:OPS])"
        ),
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="durable per-phase checkpoints under DIR (in-memory otherwise)",
    )
    p.add_argument(
        "--resume", metavar="DIR",
        help=(
            "resume an interrupted run from the durable checkpoint in "
            "DIR: completed phases are verified against their recorded "
            "digests and skipped, and the run continues from the first "
            "unverified phase — bit-identical to an uninterrupted run"
        ),
    )
    p.add_argument(
        "--supervise", action="store_true",
        help=(
            "run under the phase-deadline supervisor: hosts breaching "
            "the hard deadline (from the cost model's healthy-host "
            "baseline) are quarantined and their read slices migrate "
            "to healthy hosts"
        ),
    )
    p.add_argument(
        "--max-retries", type=int, default=3,
        help="retry budget per send and per phase replay (default 3)",
    )
    p.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES), default="serial",
        help=(
            "per-host execution engine: 'serial' (reference), "
            "'parallel' (thread pool; identical partitions and "
            "simulated breakdown by construction), 'process' (a "
            "persistent pool of forked workers mapping the graph "
            "zero-copy from shared memory and shipping ledger deltas "
            "over pipes; same guarantees, true multi-core), or "
            "their '-checked' variants (run under the host-isolation "
            "race detector)"
        ),
    )
    p.add_argument(
        "--commsan", action="store_true",
        help=(
            "run under the phase-communication sanitizer: every phase "
            "is audited against its declared contract and the ledger's "
            "conservation laws (exit 1 with the first violating "
            "(phase, host, op) on breach)"
        ),
    )

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", help="e.g. table3, fig3, fig7 (or 'all')")
    p.add_argument("--scale", default="small", choices=["tiny", "small", "bench"])
    p.add_argument("--out", metavar="FILE",
                   help="also append the rendered tables to FILE")
    p.add_argument("--chart", action="store_true",
                   help="render an ASCII chart alongside each table")

    p = sub.add_parser("info", help="print a graph file's properties")
    p.add_argument("graph", help=".gr file")

    p = sub.add_parser(
        "validate",
        help="check a saved partition directory against its input graph",
    )
    p.add_argument("partition_dir", help="directory written by --save")
    p.add_argument("graph", nargs="?", help="optional .gr file to check against")

    p = sub.add_parser(
        "lint",
        help="run the SPMD-safety lint over Python sources",
        description=(
            "Statically check sources against the determinism contract: "
            "no unseeded randomness, no wall-clock reads in simulated "
            "code, no iteration over unordered sets, no host task "
            "that touches shared communicator/stats state or another "
            "host's data, and no comm op a phase's contract does not "
            "declare (repro.core.contracts).  See docs/ANALYSIS.md for "
            "the rule catalogue and suppression syntax."
        ),
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.add_argument(
        "--rule", action="append", metavar="NAME",
        help="run only the named rule (repeatable; see --list-rules)",
    )
    p.add_argument("--list-rules", action="store_true",
                   help="print the available rules and exit")
    p.add_argument(
        "--cache", metavar="FILE",
        help=(
            "incremental cache file (default: a per-tree file under "
            "$XDG_CACHE_HOME/repro-lint)"
        ),
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="lint without reading or writing any cache",
    )

    p = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign over the full fault family",
        description=(
            "Derive N deterministic fault plans (message faults, payload "
            "corruption, host crashes, stragglers, torn checkpoint "
            "writes, kill+resume) and assert that every plan's partition "
            "is bit-identical to the fault-free run with zero sanitizer "
            "violations.  See the chaos section of docs/FAULTS.md."
        ),
    )
    p.add_argument("--plans", type=int, default=10,
                   help="number of fault plans to derive (default 10)")
    p.add_argument("--seed", type=int, default=7,
                   help="campaign seed (default 7)")
    p.add_argument("--hosts", type=int, default=4,
                   help="number of simulated hosts / partitions (default 4)")
    p.add_argument(
        "-p", "--policy", default="CVC",
        help=f"CuSP policy under test, one of {', '.join(policy_names())}",
    )
    p.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES), default="serial",
        help=(
            "execution engine for every scenario run (the fault-free "
            "reference stays serial, so a non-serial campaign also "
            "proves executor equivalence under chaos)"
        ),
    )
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-plan result lines")

    p = sub.add_parser(
        "mutate",
        help="run a seeded mutation campaign against the analyzer stack",
        description=(
            "Generate semantic faults (unseeded RNG, dropped merges, "
            "skipped flushes, laundered communication, mutated contract "
            "clauses, ...) against the repro package, splice each into "
            "an isolated shadow copy, and run the full detector stack — "
            "per-module and whole-program lint (the contract diff "
            "included) and a dynamic fixture tier — against every "
            "mutant.  Fails on any surviving mutant without a triage "
            "verdict, and on matrix drift when --reference is given.  "
            "See the 'Mutation soundness' section of docs/ANALYSIS.md."
        ),
    )
    p.add_argument(
        "target", nargs="?",
        help="repro package directory to mutate (default: the installed one)",
    )
    p.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help=(
            "number of mutants to campaign over, stratified per operator "
            "(default 24; 0 means every generated site)"
        ),
    )
    p.add_argument("--seed", type=int, default=None,
                   help="selection seed (default 7)")
    p.add_argument(
        "--static-only", action="store_true",
        help="skip the dynamic fixture tier (static detectors only)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="additionally require >= 90%% detection over non-equivalents",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.add_argument(
        "--reference", metavar="FILE",
        help=(
            "committed detection matrix to diff against; any byte "
            "difference from this run's matrix is a failure"
        ),
    )
    p.add_argument(
        "--write-reference", metavar="FILE",
        help="write this run's matrix as the new committed reference",
    )
    p.add_argument("--list-operators", action="store_true",
                   help="print the registered mutation operators and exit")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-mutant progress lines")
    return parser


def _read_graph(path: str):
    """``read_gr(path)``, with an unreadable file a CLI error.

    A missing or unreadable file is an ``OSError``; a malformed one a
    ``ValueError`` (``FormatError`` from the reader, or the CSR arrays
    it holds failing their checks)."""
    try:
        return read_gr(path)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"cannot read graph {path!r}: {exc}")


def _resolve_policy(args):
    """The ``partition`` subcommand's --policy string, checked before
    any graph is read: ``(policy, description)``, ``policy`` ``None``
    for the offline baselines."""
    spec = args.policy.lower()
    if args.resume and args.checkpoint_dir and args.resume != args.checkpoint_dir:
        raise SystemExit(
            f"--resume {args.resume!r} and --checkpoint-dir "
            f"{args.checkpoint_dir!r} name different directories; --resume "
            "already implies checkpointing to the directory it resumes from"
        )
    baseline = spec in ("xtrapulp", "multilevel")
    checkpointing = args.resume or args.checkpoint_dir
    if baseline and (args.inject_faults or checkpointing or args.supervise):
        raise SystemExit(
            "--inject-faults/--checkpoint-dir/--resume/--supervise only "
            f"apply to CuSP policies, not to {args.policy!r}"
        )
    if spec == "xtrapulp":
        return None, "XtraPulp baseline"
    if spec == "multilevel":
        return None, "multilevel baseline"
    try:
        if spec.startswith("window"):
            window = int(spec.split(":", 1)[1]) if ":" in spec else 64
            return window_policy(window), f"streaming window (size {window})"
        policy = make_policy(args.policy, degree_threshold=args.degree_threshold)
    except (ValueError, KeyError) as exc:
        reason = exc.args[0] if exc.args else exc
        raise SystemExit(f"invalid --policy {args.policy!r}: {reason}")
    return policy, policy.describe()


def _run_partitioner(graph, args, policy):
    """Run the ``partition`` subcommand's resolved policy on ``graph``
    (``policy=None``: the --policy baseline)."""
    if policy is None:
        if args.policy.lower() == "xtrapulp":
            from .baselines import XtraPulp

            return XtraPulp(args.partitions).partition(graph)
        from .baselines import MultilevelPartitioner

        return MultilevelPartitioner(args.partitions).partition(graph)
    checkpoint_dir = args.resume or args.checkpoint_dir
    fault_plan = None
    if args.inject_faults:
        from .runtime.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_spec(args.inject_faults)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"invalid --inject-faults spec: {exc}")
    try:
        cusp = CuSP(
            args.partitions,
            policy,
            sync_rounds=args.sync_rounds,
            buffer_size=args.buffer_size,
            fault_plan=fault_plan,
            checkpoint_dir=checkpoint_dir,
            resume=bool(args.resume),
            supervise=args.supervise,
            max_retries=args.max_retries,
            executor=args.executor,
            sanitizer=args.commsan,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        with cusp:
            dg = cusp.partition(graph, output=args.output_format)
    except (ValueError, CheckpointCorruptionError) as exc:
        if args.resume:
            raise SystemExit(f"cannot resume from {args.resume!r}: {exc}")
        raise
    if args.commsan:
        san = cusp.sanitizer
        print(
            f"commsan            : {san.phases_checked} phase(s) audited, "
            f"{san.ops_observed} op(s) observed, "
            f"{len(san.violations)} violation(s)"
        )
    if cusp.last_fault_report is not None:
        print(f"fault injection    : {cusp.last_fault_report.summary()}")
        if dg.breakdown is not None and dg.breakdown.retry_bytes():
            print(
                f"recovery traffic   : "
                f"{dg.breakdown.retry_bytes():.0f} retry bytes in "
                f"{dg.breakdown.retry_messages():.0f} retransmissions"
            )
        replayed = [p.name for p in dg.breakdown.failed_phases()]
        if replayed:
            print(f"replayed phases    : {', '.join(replayed)}")
    if args.supervise and cusp.last_supervisor_report is not None:
        print(f"supervision        : {cusp.last_supervisor_report.summary()}")
    return dg


def _check_exit(ok: bool, success: str, failure: str) -> int:
    """Shared verdict reporting for the checking subcommands.

    Both ``lint`` and ``validate`` end with exactly one verdict line:
    ``success`` on stdout and exit 0, or ``failure`` on stderr and
    exit 1 — so scripts can gate on the exit code and humans can grep
    for one stable prefix (``OK:`` / ``FAIL:`` / ``INVALID:``).
    """
    if ok:
        print(success)
        return 0
    print(failure, file=sys.stderr)
    return 1


def _default_cache(paths: list) -> str:
    """Per-tree default cache file under the user's cache directory."""
    import hashlib

    base = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
    )
    key = hashlib.sha256(
        "\x00".join(os.path.abspath(str(p)) for p in paths).encode()
    ).hexdigest()[:16]
    return os.path.join(base, "repro-lint", f"lint-{key}.json")


def _run_lint_command(args) -> int:
    """The ``lint`` subcommand: drive :func:`repro.analysis.lint.run_lint`."""
    from .analysis.lint import all_rules, run_lint

    registry = all_rules()
    if args.list_rules:
        width = max(len(name) for name in registry)
        for name in sorted(registry):
            rule = registry[name]
            print(f"{name:<{width}}  [{rule.severity}] {rule.description}")
        return 0
    rules = None
    if args.rule:
        unknown = sorted(set(args.rule) - set(registry))
        if unknown:
            raise SystemExit(
                f"unknown rule(s): {', '.join(unknown)} "
                "(see 'lint --list-rules')"
            )
        rules = [registry[n] for n in dict.fromkeys(args.rule)]
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    cache = None if args.no_cache else args.cache or _default_cache(paths)
    report = run_lint(paths, rules=rules, cache=cache)
    ok = report.ok(strict=args.strict)
    if args.json:
        print(report.to_json())
        return 0 if ok else 1
    for finding in report.findings:
        print(finding.render())
    strict_note = (
        " (strict: warnings are errors)"
        if args.strict and not ok and not report.errors else ""
    )
    return _check_exit(
        ok,
        f"OK: {report.summary()}",
        f"FAIL: {report.summary()}{strict_note}",
    )


def _run_mutate_command(args) -> int:
    """The ``mutate`` subcommand: drive the analyzer mutation campaign."""
    from .analysis.mutate import all_operators, run_campaign
    from .analysis.mutate.campaign import (
        DEFAULT_BUDGET,
        DEFAULT_SEED,
        CampaignError,
    )

    if args.list_operators:
        ops = all_operators()
        width = max(len(name) for name in ops)
        for name in sorted(ops):
            op = ops[name]
            print(f"{name:<{width}}  [{op.fault_class}] {op.description}")
        return 0
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    progress = None
    if not args.quiet and not args.json:
        progress = print
    try:
        report = run_campaign(
            target=args.target,
            budget=None if budget == 0 else budget,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
            static_only=args.static_only,
            progress=progress,
        )
    except CampaignError as exc:
        raise SystemExit(f"mutation campaign aborted: {exc}")
    matrix = report.to_json()
    if args.write_reference:
        with open(args.write_reference, "w") as f:
            f.write(matrix)
        print(f"reference matrix written to {args.write_reference}")
    drift = ""
    if args.reference:
        try:
            with open(args.reference) as f:
                committed = f.read()
        except OSError as exc:
            raise SystemExit(f"cannot read --reference: {exc}")
        if committed != matrix:
            drift = (
                f" (matrix drifted from {args.reference}; inspect the diff"
                " and re-run with --write-reference if intended)"
            )
    ok = report.ok(strict=args.strict) and not drift
    if args.json:
        print(matrix, end="")
        return 0 if ok else 1
    if not args.quiet:
        print(report.render_text())
    strict_note = (
        " (strict: detection rate below 90%)"
        if args.strict and not report.ok(strict=True) and report.ok()
        else ""
    )
    return _check_exit(
        ok,
        f"OK: {report.summary()}",
        f"FAIL: {report.summary()}{strict_note}{drift}",
    )


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; standard CLI etiquette.
        import os

        try:
            sys.stdout.close()
        # stdout already broke; closing can only fail the same way, and
        # os._exit follows immediately.
        # repro-lint: disable-next-line=swallowed-error -- broken-pipe exit path
        except Exception:
            pass
        os._exit(0)


def _dispatch(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "convert":
        graph = convert(args.src, args.dst)
        print(f"converted {args.src} -> {args.dst}: {graph}")

    elif args.command == "generate":
        if args.kind == "kron":
            graph = kronecker(args.scale, seed=args.seed)
        elif args.kind == "webcrawl":
            graph = webcrawl_like(args.nodes, args.degree, seed=args.seed)
        else:
            graph = erdos_renyi(
                args.nodes, int(args.nodes * args.degree), seed=args.seed
            )
        write_gr(graph, args.out)
        print(f"wrote {graph} to {args.out}")

    elif args.command == "partition":
        from .analysis.contracts import ContractViolationError
        from .runtime.faults import FaultError

        policy, description = _resolve_policy(args)
        graph = _read_graph(args.graph)
        try:
            dg = _run_partitioner(graph, args, policy)
        except FaultError as exc:
            print(f"partitioning failed: {exc}", file=sys.stderr)
            return 1
        except ContractViolationError as exc:
            print(f"commsan violation: {exc}", file=sys.stderr)
            return 1
        if args.validate:
            from .core import check_partition

            report = check_partition(dg, original=graph)
            print(f"validation         : {report.summary()}")
            if not report.ok:
                return 1
        else:
            dg.validate(graph)
        q = measure_quality(dg, graph)
        print(f"partitioned {graph} with {description}")
        print(f"replication factor : {q.replication_factor:.3f}")
        print(f"node/edge balance  : {q.node_balance:.3f} / {q.edge_balance:.3f}")
        print(f"max comm partners  : {q.max_partners}")
        if dg.breakdown is None:
            print("(offline single-machine baseline: no simulated timing)")
        elif args.trace:
            from .runtime.trace import render_breakdown

            print(render_breakdown(dg.breakdown, title="simulated time by phase:"))
        else:
            print("simulated time by phase:")
            for phase in dg.breakdown.phases:
                print(f"  {phase.name:<24} {phase.total * 1e3:10.3f} ms")
            print(f"  {'TOTAL':<24} {dg.breakdown.total * 1e3:10.3f} ms")
        if args.trace_json and dg.breakdown is not None:
            from .runtime.trace import breakdown_to_json

            with open(args.trace_json, "w") as f:
                f.write(
                    breakdown_to_json(
                        dg.breakdown, policy=dg.policy_name,
                        num_partitions=dg.num_partitions,
                    )
                )
            print(f"trace written to {args.trace_json}")
        if args.save:
            from .core import save_partitions

            save_partitions(dg, args.save)
            print(f"partitions written to {args.save}")

    elif args.command == "experiment":
        from .experiments import EXPERIMENTS, ExperimentContext

        names = list(EXPERIMENTS) if args.name == "all" else [args.name]
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiment(s) {unknown}; choose from "
                f"{list(EXPERIMENTS)} or 'all'",
                file=sys.stderr,
            )
            return 2
        ctx = ExperimentContext(scale=args.scale)
        chunks = []
        for name in names:
            result = EXPERIMENTS[name](ctx)
            text = result.format()
            if args.chart:
                from .experiments.charts import render_experiment

                text += "\n\n" + render_experiment(result)
            print(text)
            print()
            chunks.append(text)
        if args.out:
            with open(args.out, "a") as f:
                f.write("\n\n".join(chunks) + "\n")
            print(f"results appended to {args.out}")

    elif args.command == "validate":
        from .core import check_partition, load_partitions

        try:
            dg = load_partitions(args.partition_dir)
        except Exception as exc:
            return _check_exit(
                False, "",
                f"INVALID: cannot load {args.partition_dir}: {exc}",
            )
        reference = _read_graph(args.graph) if args.graph else None
        report = check_partition(dg, original=reference)
        return _check_exit(
            report.ok,
            f"OK: {dg} — {report.summary()}"
            + (" (edge multiset matches the input graph)" if reference else ""),
            f"INVALID: {report.summary()}",
        )

    elif args.command == "chaos":
        from .chaos import run_campaign

        try:
            report = run_campaign(
                plans=args.plans, seed=args.seed, num_hosts=args.hosts,
                policy=args.policy, executor=args.executor,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if not args.quiet:
            print(report.render_text())
        return _check_exit(
            report.ok(),
            f"OK: {report.summary()}",
            f"FAIL: {report.summary()}",
        )

    elif args.command == "lint":
        return _run_lint_command(args)

    elif args.command == "mutate":
        return _run_mutate_command(args)

    elif args.command == "info":
        graph = _read_graph(args.graph)
        for key, value in compute_properties(graph, args.graph).row().items():
            print(f"{key:<16} {value}")

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
