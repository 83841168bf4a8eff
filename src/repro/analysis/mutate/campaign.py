"""The mutation campaign driver: shadow, splice, probe, score.

:func:`run_campaign` copies the target ``repro`` package into a shadow
tree, applies one mutant at a time (restoring the original bytes after
each), and runs :mod:`.probe` as a subprocess whose ``PYTHONPATH``
leads with the shadow — so every detector, static and dynamic, sees
the mutated package exactly as an install would.  A baseline probe on
the *unmutated* shadow must come back completely quiet (it also warms
the lint cache all later probes share); a noisy baseline aborts
the campaign, because detection counts against a dirty background are
meaningless.

Everything about a campaign is deterministic for a fixed (tree, seed,
budget, operator set): site enumeration is totally ordered, budget
selection is a seeded stratified round-robin over operators, and the
emitted matrix contains no timings, paths outside the package, or
exception messages — so two runs produce byte-identical JSON and the
committed ``MUTATION_MATRIX.json`` can be diffed exactly, the same way
``scripts/bench_smoke.py`` pins its reference digests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .operators import Mutant, MutationOperator, all_operators, apply_site, collect_mutants
from .probe import ABLATION_FIXTURE, FIXTURE_GRAPH, FIXTURES
from .triage import TRIAGE, TriageEntry

__all__ = [
    "CampaignError",
    "MutantResult",
    "CampaignReport",
    "select_mutants",
    "run_campaign",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "DETECTORS",
]

#: The default campaign: enough budget for at least two sites per
#: operator, small enough for a CI gate.
DEFAULT_BUDGET = 24
DEFAULT_SEED = 7

#: Matrix columns, in report order.
DETECTORS = ("lint", "deep", "dynamic")

#: Survivor verdicts excluded from the detection-rate denominator.
_EXCLUDED_VERDICTS = ("equivalent", "covered-elsewhere")

#: Per-probe wall-clock ceiling; a mutant that hangs the fixture is
#: recorded as caught by the dynamic tier ("timeout" — the harness
#: noticed), with whatever static verdicts were flushed before the kill.
PROBE_TIMEOUT = 300.0


class CampaignError(RuntimeError):
    """The campaign itself could not run soundly (e.g. noisy baseline)."""


@dataclass
class MutantResult:
    """One matrix row: a mutant and every detector's verdict."""

    mutant: Mutant
    #: detector name -> {"caught": bool, "findings": [str, ...]}
    detectors: dict[str, dict] = field(default_factory=dict)
    triage: TriageEntry | None = None

    @property
    def caught_by(self) -> list[str]:
        return [d for d in DETECTORS if self.detectors.get(d, {}).get("caught")]

    @property
    def status(self) -> str:
        """``caught`` | ``equivalent`` (triaged out) | ``survived``."""
        if self.caught_by:
            return "caught"
        if self.triage is not None and self.triage.verdict in _EXCLUDED_VERDICTS:
            return "equivalent"
        return "survived"

    @property
    def untriaged(self) -> bool:
        return self.status == "survived" and self.triage is None

    def as_row(self) -> dict:
        row = {
            "id": self.mutant.id,
            "operator": self.mutant.operator,
            "class": self.mutant.fault_class,
            "file": self.mutant.rel,
            "line": self.mutant.site.line,
            "description": self.mutant.site.description,
            "detectors": {
                name: self.detectors.get(
                    name, {"caught": False, "findings": ["not-run"]}
                )
                for name in DETECTORS
            },
            "status": self.status,
        }
        if self.triage is not None:
            row["triage"] = self.triage.as_dict()
        return row


@dataclass
class CampaignReport:
    """Outcome of one campaign over a set of selected mutants."""

    results: list[MutantResult] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    budget: int | None = DEFAULT_BUDGET
    sites_found: int = 0
    static_only: bool = False

    @property
    def caught(self) -> list[MutantResult]:
        return [r for r in self.results if r.status == "caught"]

    @property
    def equivalent(self) -> list[MutantResult]:
        return [r for r in self.results if r.status == "equivalent"]

    @property
    def survivors(self) -> list[MutantResult]:
        return [r for r in self.results if r.status == "survived"]

    @property
    def untriaged(self) -> list[MutantResult]:
        return [r for r in self.results if r.untriaged]

    def detection_rate(self) -> float | None:
        """Caught over non-equivalent mutants (None on an empty run)."""
        denominator = len(self.results) - len(self.equivalent)
        if denominator <= 0:
            return None
        return len(self.caught) / denominator

    def ok(self, strict: bool = False) -> bool:
        """No untriaged survivors; strict additionally wants >= 90%."""
        if self.untriaged:
            return False
        if strict:
            rate = self.detection_rate()
            return rate is not None and rate >= 0.9
        return True

    def class_table(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for r in self.results:
            row = table.setdefault(
                r.mutant.fault_class,
                {"total": 0, "caught": 0, "equivalent": 0, "survived": 0},
            )
            row["total"] += 1
            row[r.status] += 1
        return {cls: table[cls] for cls in sorted(table)}

    def matrix_doc(self) -> dict:
        """The full detection matrix (the committed-reference payload)."""
        rate = self.detection_rate()
        ops = all_operators()
        used = sorted({r.mutant.operator for r in self.results})
        return {
            "version": 1,
            "seed": self.seed,
            "budget": self.budget,
            "sites_found": self.sites_found,
            "static_only": self.static_only,
            "fixtures": [list(f) for f in FIXTURES],
            "ablation_fixture": list(ABLATION_FIXTURE),
            "fixture_graph": list(FIXTURE_GRAPH),
            "detectors": list(DETECTORS),
            "operators": {
                name: {
                    "class": ops[name].fault_class,
                    "description": ops[name].description,
                }
                for name in used
                if name in ops
            },
            "classes": self.class_table(),
            "detection_rate": None if rate is None else round(rate, 4),
            "rows": [
                r.as_row()
                for r in sorted(self.results, key=lambda r: r.mutant.id)
            ],
        }

    def to_json(self) -> str:
        """Byte-stable rendering: the reference file's exact content."""
        return json.dumps(self.matrix_doc(), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        rate = self.detection_rate()
        shown = "n/a" if rate is None else f"{100 * rate:.1f}%"
        return (
            f"{len(self.caught)} caught, {len(self.equivalent)} equivalent, "
            f"{len(self.survivors)} survived "
            f"({len(self.untriaged)} untriaged) of {len(self.results)} "
            f"mutant(s) [{self.sites_found} site(s)]; detection {shown}"
        )

    def render_text(self) -> str:
        lines = []
        for r in sorted(self.results, key=lambda x: x.mutant.id):
            verdict = (
                "caught by " + "+".join(r.caught_by)
                if r.caught_by
                else r.status
                + (f" ({r.triage.verdict})" if r.triage is not None else "")
            )
            lines.append(
                f"{r.mutant.id} [{r.mutant.fault_class}] "
                f"{r.mutant.rel}:{r.mutant.site.line} -> {verdict}"
            )
        for cls, row in self.class_table().items():
            lines.append(
                f"class {cls}: {row['caught']}/{row['total']} caught, "
                f"{row['equivalent']} equivalent, {row['survived']} survived"
            )
        lines.append(self.summary())
        return "\n".join(lines)


def select_mutants(
    mutants: Sequence[Mutant], budget: int | None, seed: int
) -> list[Mutant]:
    """Seeded stratified selection: round-robin across operators.

    Every operator contributes sites in a seeded shuffle of its own
    (deterministic per ``(seed, operator index)``), and operators take
    turns until the budget is spent — so a small budget still samples
    every fault class.  Selection depends only on the sorted site list,
    never on discovery order.
    """
    if budget is None or budget >= len(mutants):
        return list(mutants)
    by_op: dict[str, list[Mutant]] = {}
    for m in mutants:  # mutants arrive sorted by (operator, rel, ordinal)
        by_op.setdefault(m.operator, []).append(m)
    queues = []
    for index, name in enumerate(sorted(by_op)):
        group = by_op[name]
        order = np.random.default_rng([seed, index]).permutation(len(group))
        queues.append([group[i] for i in order])
    chosen: list[Mutant] = []
    while len(chosen) < budget and any(queues):
        for queue in queues:
            if queue and len(chosen) < budget:
                chosen.append(queue.pop(0))
    chosen.sort(key=lambda m: m.id)
    return chosen


def _probe_script() -> Path:
    """The probe file, run by path so a broken shadow can't block it."""
    return Path(__file__).resolve().parent / "probe.py"


def _parse_verdicts(out_path: Path) -> dict[str, dict]:
    verdicts: dict[str, dict] = {}
    if not out_path.exists():
        return verdicts
    for line in out_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn final line from a killed probe
        name = record.get("detector")
        if isinstance(name, str):
            verdicts[name] = {
                "caught": bool(record.get("caught")),
                "findings": sorted(
                    str(f) for f in record.get("findings", ())
                ),
            }
    return verdicts


def _run_probe(
    shadow_root: Path,
    pkg_dir: Path,
    out_path: Path,
    cache_path: Path,
    static_only: bool,
    timeout: float,
) -> tuple[dict[str, dict], bool]:
    """One probe subprocess; returns (verdicts, timed_out)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(shadow_root) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable,
        str(_probe_script()),
        "--pkg",
        str(pkg_dir),
        "--out",
        str(out_path),
        "--cache",
        str(cache_path),
    ]
    if static_only:
        cmd.append("--static-only")
    timed_out = False
    try:
        subprocess.run(
            cmd,
            env=env,
            timeout=timeout,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=False,
        )
    except subprocess.TimeoutExpired:
        timed_out = True
    verdicts = _parse_verdicts(out_path)
    if timed_out and "dynamic" not in verdicts and not static_only:
        # The fixture hung: that *is* a detection — a real run would
        # never terminate, which no reviewer mistakes for healthy.
        verdicts["dynamic"] = {"caught": True, "findings": ["timeout"]}
    return verdicts, timed_out


def run_campaign(
    target: str | Path | None = None,
    budget: int | None = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    operators: Iterable[MutationOperator] | None = None,
    static_only: bool = False,
    probe_timeout: float = PROBE_TIMEOUT,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run a budgeted mutation campaign against ``target``.

    ``target`` is the ``repro`` package directory (defaults to the one
    this module was imported from).  Raises :class:`CampaignError` when
    the baseline probe is not perfectly quiet.
    """
    if target is None:
        pkg_dir = Path(__file__).resolve().parents[2]
    else:
        pkg_dir = Path(target).resolve()
    if not (pkg_dir / "core" / "framework.py").exists():
        raise CampaignError(
            f"{pkg_dir} does not look like a repro package "
            "(no core/framework.py)"
        )
    say = progress if progress is not None else (lambda _msg: None)

    mutants = collect_mutants(pkg_dir, operators=operators)
    selected = select_mutants(mutants, budget, seed)
    report = CampaignReport(
        seed=seed,
        budget=budget,
        sites_found=len(mutants),
        static_only=static_only,
    )
    say(
        f"{len(mutants)} mutation site(s); campaigning over "
        f"{len(selected)} (seed {seed})"
    )

    workdir = Path(tempfile.mkdtemp(prefix="repro-mutate-"))
    try:
        shadow_root = workdir / "shadow"
        shadow_pkg = shadow_root / "repro"
        shutil.copytree(
            pkg_dir,
            shadow_pkg,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache_path = workdir / "lint-cache.json"

        baseline, timed_out = _run_probe(
            shadow_root,
            shadow_pkg,
            workdir / "baseline.jsonl",
            cache_path,
            static_only,
            probe_timeout,
        )
        expected = [d for d in DETECTORS if d != "dynamic" or not static_only]
        noisy = [
            name
            for name in expected
            if baseline.get(name, {}).get("caught")
            or baseline.get(name, {}).get("findings")
        ]
        if timed_out or noisy or any(d not in baseline for d in expected):
            detail = json.dumps(baseline, sort_keys=True)
            raise CampaignError(
                "baseline probe is not clean"
                + (" (timed out)" if timed_out else "")
                + f": {detail}"
            )
        say("baseline probe clean; lint cache warm")

        for index, mutant in enumerate(selected):
            path = shadow_pkg / mutant.rel
            original = path.read_text()
            path.write_text(apply_site(original, mutant.site))
            try:
                verdicts, _ = _run_probe(
                    shadow_root,
                    shadow_pkg,
                    workdir / f"mutant-{index}.jsonl",
                    cache_path,
                    static_only,
                    probe_timeout,
                )
            finally:
                path.write_text(original)
            result = MutantResult(
                mutant=mutant,
                detectors=verdicts,
                triage=TRIAGE.get(mutant.id),
            )
            report.results.append(result)
            say(
                f"[{index + 1}/{len(selected)}] {mutant.id}: "
                + (
                    "caught by " + "+".join(result.caught_by)
                    if result.caught_by
                    else result.status
                )
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report
