#!/usr/bin/env bash
# Chaos determinism demo: run a short seeded chaos comparison twice with the
# non-learning algorithms (no training, runs in seconds) and fail unless the
# two runs produce byte-identical CSVs — the fault injector's reproducibility
# guarantee (same seed + same plan => same trace). `make chaos-demo` runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

# The demo doubles as an invariant gate: every runtime check in the stack
# runs live, and a violation panics the run.
export MIRAS_INVARIANTS=1

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

ALGS="stream,heft,monad"
WINDOWS=8

echo "==> building miras"
go build -o "$WORK/miras" ./cmd/miras

for run in 1 2; do
    echo "==> chaos run $run (algorithms=$ALGS windows=$WINDOWS)"
    "$WORK/miras" chaos -algorithms "$ALGS" -windows "$WINDOWS" \
        -out "$WORK/run$run" >"$WORK/run$run.log"
done

echo "==> comparing CSVs byte-for-byte"
status=0
for f in "$WORK"/run1/*.csv; do
    name="$(basename "$f")"
    if ! cmp -s "$f" "$WORK/run2/$name"; then
        echo "MISMATCH: $name differs between identical seeded runs" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1

count=$(ls "$WORK"/run1/*.csv | wc -l)
echo "==> $count CSVs identical across runs; summary:"
cat "$WORK/run1/chaos-msd-summary.csv"
echo "OK"
