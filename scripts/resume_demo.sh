#!/usr/bin/env bash
# Kill-and-resume equivalence demo: run the quick MSD training pipeline to
# completion (the golden trace), run it again with checkpointing and kill it
# with SIGTERM once the first checkpoint lands, then resume from the
# checkpoint directory and fail unless the stitched-together run produces
# byte-identical CSVs — the crash-safety guarantee (checkpoint + replay log
# + RNG positions reconstruct the exact trajectory). `make resume-demo`
# runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

# The demo doubles as an invariant gate: every runtime check in the stack
# runs live, and a violation panics the run.
export MIRAS_INVARIANTS=1

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

# Stretch the quick preset so the kill window (between the first checkpoint
# and run completion) is wide even on a loaded CI machine.
ITERATIONS=8

echo "==> building miras"
go build -o "$WORK/miras" ./cmd/miras

echo "==> golden uninterrupted run (quick msd, $ITERATIONS iterations)"
"$WORK/miras" train -iterations "$ITERATIONS" -out "$WORK/golden" >"$WORK/golden.log"

echo "==> interrupted run: SIGTERM after the first checkpoint lands"
"$WORK/miras" train -iterations "$ITERATIONS" -out "$WORK/resumed" \
    -checkpoint-dir "$WORK/ckpt" >"$WORK/interrupted.log" &
pid=$!
for _ in $(seq 1 600); do
    if ls "$WORK/ckpt"/ckpt-*.json >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "training exited before writing a checkpoint" >&2
        cat "$WORK/interrupted.log" >&2
        exit 1
    fi
    sleep 0.05
done
kill -TERM "$pid"
wait "$pid" # a clean boundary stop must exit 0
if ls "$WORK/resumed"/*.csv >/dev/null 2>&1; then
    echo "interrupted run wrote CSVs; expected a clean stop with none" >&2
    exit 1
fi

echo "==> resuming from $(ls "$WORK/ckpt" | tail -1)"
"$WORK/miras" train -iterations "$ITERATIONS" -out "$WORK/resumed" \
    -checkpoint-dir "$WORK/ckpt" -resume >"$WORK/resume.log"

echo "==> comparing CSVs byte-for-byte"
status=0
for f in "$WORK"/golden/*.csv; do
    name="$(basename "$f")"
    if ! cmp -s "$f" "$WORK/resumed/$name"; then
        echo "MISMATCH: $name differs between golden and killed+resumed runs" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1

count=$(ls "$WORK"/golden/*.csv | wc -l)
echo "==> $count CSV(s) byte-identical between uninterrupted and killed+resumed runs"
echo "OK"
