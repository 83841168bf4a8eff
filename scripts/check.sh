#!/usr/bin/env bash
# Full correctness gate: strict SPMD-safety lint (the phase-contract
# diff is its deep-contract rule), type check (when mypy is installed),
# tier-1 suite, the dedicated
# fault/recovery suite, the chaos campaign (serial and pooled process
# executor, the latter also under SVC's and FEC's stateful master
# rules, and SVC under the isolation monitor), the
# analyzer mutation campaign (detection rate + committed-matrix
# digest), the bench smoke test (throughput floor +
# partition digest), the perf-harness smoke run, and end-to-end CLI
# exit-code checks (a corrupted partition directory must make `cusp
# validate` exit non-zero), and last an assertion that the pooled runs
# above left nothing behind: no `repro-*` name in /dev/shm, no child.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== SPMD-safety lint (strict, per-module + whole-program rules) =="
# Run twice so the gate also demonstrates the incremental cache: the
# second run must replay everything from per-file SHA-256 cache hits.
lint_cache="$(mktemp -u)"
python -m repro lint src/repro --strict --cache "$lint_cache"
echo "-- warm re-run (everything cached):"
time python -m repro lint src/repro --strict --cache "$lint_cache"
rm -f "$lint_cache"

echo "== type check (mypy, when available) =="
if command -v mypy >/dev/null 2>&1; then
    mypy --config-file pyproject.toml
else
    echo "mypy not installed; skipping (CI runs it as a dedicated job)"
fi

echo "== tier-1: unit + integration + property tests =="
python -m pytest -x -q

echo "== fault-injection and crash-recovery suite =="
python -m pytest -x -q -m faults

echo "== chaos campaign: full fault family, bit-identity gate =="
python -m repro chaos --plans 10 --seed 7 --quiet
python -m repro chaos --plans 10 --seed 7 --executor process --quiet
# A history-sensitive master rule: the pooled masters rounds (published
# request table, shared masters maps, one stepped task per host whose
# worker keeps it live from round to round) under every fault family,
# for FennelEB and Fennel.
python -m repro chaos --plans 10 --seed 7 --executor process -p SVC --quiet
python -m repro chaos --plans 10 --seed 7 --executor process -p FEC --quiet
# The parent's lane runs pooled bodies in this process: the same rounds
# under the isolation monitor, in the parent and in the workers.
python -m repro chaos --plans 10 --seed 7 --executor process-checked -p SVC --quiet

echo "== analyzer mutation campaign: detection + matrix digest gate =="
python -m repro mutate --budget 24 --seed 7 --strict --quiet \
    --reference MUTATION_MATRIX.json

echo "== bench-smoke: throughput floor + partition digest =="
python scripts/bench_smoke.py

echo "== perf harness smoke (benchmarks/perf --quick; exit status is the verdict) =="
python3 benchmarks/perf/run.py --quick >/dev/null

echo "== CLI exit-code checks =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

python -m repro generate er "$tmp/g.gr" --nodes 300 --degree 8 --seed 3 >/dev/null

# Faulty run must recover, validate, and exit 0.
python -m repro partition "$tmp/g.gr" -k 4 -p CVC \
    --inject-faults "seed=42,send-fail=0.05,crash=1@2" \
    --checkpoint-dir "$tmp/ckpt" --validate --save "$tmp/parts" >/dev/null

# The pooled stateful masters path at the paper's default round count,
# under the sanitizer (no payload may sit on a queue nobody drains), must
# save byte for byte what a serial run saves.
python -m repro partition "$tmp/g.gr" -k 4 -p SVC --sync-rounds 100 \
    --executor process --commsan --save "$tmp/svc_process" >/dev/null
python -m repro partition "$tmp/g.gr" -k 4 -p SVC --sync-rounds 100 \
    --save "$tmp/svc_serial" >/dev/null
for f in "$tmp"/svc_serial/*; do
    cmp "$f" "$tmp/svc_process/$(basename "$f")"
done
[ "$(ls "$tmp/svc_serial" | wc -l)" = "$(ls "$tmp/svc_process" | wc -l)" ]

# A clean saved directory validates.
python -m repro validate "$tmp/parts" "$tmp/g.gr" >/dev/null

# A corrupted master map must exit non-zero.
python - "$tmp/parts" <<'EOF'
import sys
import numpy as np
path = sys.argv[1] + "/masters.npy"
m = np.load(path)
m[:5] = (m[:5] + 1) % 4
np.save(path, m)
EOF
if python -m repro validate "$tmp/parts" "$tmp/g.gr" >/dev/null 2>&1; then
    echo "FAIL: validate accepted a corrupted partition directory" >&2
    exit 1
fi

# A directory that cannot be loaded must exit non-zero too.
mkdir -p "$tmp/bogus"
echo '{ not json' > "$tmp/bogus/meta.json"
if python -m repro validate "$tmp/bogus" >/dev/null 2>&1; then
    echo "FAIL: validate accepted an unloadable directory" >&2
    exit 1
fi

# A malformed --policy must exit non-zero with a message, not a traceback.
if python -m repro partition "$tmp/g.gr" -k 2 -p NOPE >/dev/null 2>"$tmp/policy.err" \
        || grep -q Traceback "$tmp/policy.err"; then
    echo "FAIL: partition -p NOPE did not fail cleanly" >&2
    exit 1
fi

# So must a graph file that cannot be read.
if python -m repro partition /dev/null -k 2 -p CVC >/dev/null 2>"$tmp/graph.err" \
        || grep -q Traceback "$tmp/graph.err"; then
    echo "FAIL: partition /dev/null did not fail cleanly" >&2
    exit 1
fi

echo "== nothing left behind =="
# Pools outlive a partition() call now, so say it out loud: every pooled
# run above retired its workers and unlinked its segments.
if compgen -G "/dev/shm/repro-*" >/dev/null; then
    echo "FAIL: shared-memory segments left in /dev/shm:" /dev/shm/repro-* >&2
    exit 1
fi
if pgrep -P $$ >/dev/null; then
    echo "FAIL: the shell still has a child: $(pgrep -P $$ | tr '\n' ' ')" >&2
    exit 1
fi

echo "all checks passed"
