#!/usr/bin/env bash
# Golden end-to-end regression gate: build the offline CLI (cmd/miras), run
# seeded short-horizon train / compare / chaos pipelines, the quick budget /
# dynamic-load / kill-timer sweeps and the examples with runtime invariants
# enabled and debug-level -trace-out on, and fail unless every
# produced CSV and JSONL trace matches the sha256 manifest pinned in
# scripts/testdata/golden_demo.sha256. Any behavioural drift — an RNG draw
# reordered, a reward term changed, a float expression reassociated — changes
# the CSV bytes; any telemetry drift — an event or span added, dropped,
# reordered or re-tagged — changes the trace bytes. Either trips the gate. The
# stdout of the seeded examples is pinned the same way. `make golden-demo`
# runs this; refresh deliberately with `scripts/golden_demo.sh --update`.
set -euo pipefail

cd "$(dirname "$0")/.."

PINNED="scripts/testdata/golden_demo.sha256"
MODE="${1:-check}"

# Go's math library uses per-architecture assembly, so the low bits of the
# traces are only pinned for linux/amd64.
if [ "$(uname -s)-$(uname -m)" != "Linux-x86_64" ]; then
    echo "SKIP: golden digests are pinned for Linux x86_64, not $(uname -s)-$(uname -m)"
    exit 0
fi

# The demos are also the invariant gate: every check in the stack runs live.
export MIRAS_INVARIANTS=1

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

echo "==> building miras"
go build -o "$WORK/miras" ./cmd/miras

OUT="$WORK/out"
mkdir -p "$OUT"

echo "==> determinism self-checks (paired seeded runs per pipeline)"
"$WORK/miras" selfcheck

echo "==> seeded train run (quick msd)"
"$WORK/miras" train -out "$OUT" \
    -trace-out "$OUT/train.jsonl" -log-level debug >"$WORK/train.log"

echo "==> seeded compare run (shrunk training)"
"$WORK/miras" compare -iterations 2 -steps-per-iter 50 -policy-episodes 6 \
    -out "$OUT" -trace-out "$OUT/compare.jsonl" -log-level debug >"$WORK/compare.log"

echo "==> seeded chaos run (non-learning algorithms)"
"$WORK/miras" chaos -algorithms stream,heft,monad -windows 8 \
    -out "$OUT" -trace-out "$OUT/chaos.jsonl" -log-level debug >"$WORK/chaos.log"

echo "==> seeded quick sweeps (budget, dynamic load, kill timer)"
for study in budget dynamic chaos; do
    "$WORK/miras" sweep -study "$study" -scale quick -out "$OUT" >"$WORK/sweep-$study.log"
done

# http-agent is left out: it prints the random port its server listens on.
echo "==> seeded examples"
for ex in quickstart msd-autoscale ligo-burst custom-workflow failure-recovery; do
    go build -o "$WORK/$ex" "./examples/$ex"
    "$WORK/$ex" >"$OUT/example-$ex.txt"
done

manifest="$WORK/manifest.sha256"
(cd "$OUT" && sha256sum -- *.csv *.jsonl *.txt | LC_ALL=C sort -k2) >"$manifest"

case "$MODE" in
--update)
    mkdir -p "$(dirname "$PINNED")"
    cp "$manifest" "$PINNED"
    echo "==> pinned $(wc -l <"$PINNED") CSV, trace and example-output digests to $PINNED"
    ;;
check)
    if [ ! -f "$PINNED" ]; then
        echo "no pinned manifest at $PINNED; run scripts/golden_demo.sh --update" >&2
        exit 1
    fi
    if ! diff -u "$PINNED" "$manifest"; then
        echo "MISMATCH: seeded CSV or trace output drifted from the pinned manifest." >&2
        echo "If the change is intentional, refresh with scripts/golden_demo.sh --update" >&2
        exit 1
    fi
    echo "==> $(wc -l <"$manifest") CSVs, traces and example outputs match the pinned manifest"
    ;;
*)
    echo "usage: scripts/golden_demo.sh [--update]" >&2
    exit 2
    ;;
esac
echo "OK"
