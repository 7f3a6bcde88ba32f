#!/usr/bin/env bash
# Golden end-to-end regression gate: build the offline CLI (cmd/miras), run
# seeded short-horizon train / compare / chaos pipelines with runtime
# invariants enabled, and fail unless every produced CSV matches the sha256
# manifest pinned in scripts/testdata/golden_demo.sha256. Any behavioural
# drift — an RNG draw reordered, a reward term changed, a float expression
# reassociated — changes the bytes and trips the gate. `make golden-demo`
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

echo "==> determinism self-checks (paired seeded runs per pipeline)"
"$WORK/miras" selfcheck

echo "==> seeded train run (quick msd)"
"$WORK/miras" train -out "$OUT" >"$WORK/train.log"

echo "==> seeded compare run (shrunk training)"
"$WORK/miras" compare -iterations 2 -steps-per-iter 50 -policy-episodes 6 \
    -out "$OUT" >"$WORK/compare.log"

echo "==> seeded chaos run (non-learning algorithms)"
"$WORK/miras" chaos -algorithms stream,heft,monad -windows 8 \
    -out "$OUT" >"$WORK/chaos.log"

manifest="$WORK/manifest.sha256"
(cd "$OUT" && sha256sum -- *.csv | LC_ALL=C sort -k2) >"$manifest"

case "$MODE" in
--update)
    mkdir -p "$(dirname "$PINNED")"
    cp "$manifest" "$PINNED"
    echo "==> pinned $(wc -l <"$PINNED") CSV digests to $PINNED"
    ;;
check)
    if [ ! -f "$PINNED" ]; then
        echo "no pinned manifest at $PINNED; run scripts/golden_demo.sh --update" >&2
        exit 1
    fi
    if ! diff -u "$PINNED" "$manifest"; then
        echo "MISMATCH: seeded CSV output drifted from the pinned manifest." >&2
        echo "If the change is intentional, refresh with scripts/golden_demo.sh --update" >&2
        exit 1
    fi
    echo "==> $(wc -l <"$manifest") CSVs match the pinned manifest"
    ;;
*)
    echo "usage: scripts/golden_demo.sh [--update]" >&2
    exit 2
    ;;
esac
echo "OK"
