#!/usr/bin/env bash
# Horizontal-scaling gate: build miras, stand up a 2-shard fleet
# (`miras serve`) behind `miras route`, replay with `miras load` a
# seeded Zipf-skewed 2000-request trace with zero tolerated 5xx, and then
# prove drain→rehydrate round-trips snapshots byte-identically across two
# server processes sharing a spill directory. `make loadgen-demo` runs
# this; the loadgen summary is printed and discarded with the scratch
# directory — performance numbers come from `go run ./benchmark`.
set -euo pipefail

cd "$(dirname "$0")/.."

export MIRAS_INVARIANTS=1

ROUTER_ADDR="${LOADGEN_DEMO_ROUTER:-127.0.0.1:18090}"
SHARD1_ADDR="${LOADGEN_DEMO_SHARD1:-127.0.0.1:18091}"
SHARD2_ADDR="${LOADGEN_DEMO_SHARD2:-127.0.0.1:18092}"
SPILL_A_ADDR="${LOADGEN_DEMO_SPILL_A:-127.0.0.1:18093}"
SPILL_B_ADDR="${LOADGEN_DEMO_SPILL_B:-127.0.0.1:18094}"

. scripts/lib.sh

build_miras

PEERS="http://$SHARD1_ADDR,http://$SHARD2_ADDR"

echo "==> starting 2 shard processes + router"
"$MIRAS" serve -addr "$SHARD1_ADDR" -max-sessions 256 \
    -self "http://$SHARD1_ADDR" -members "$PEERS" &
PIDS+=($!)
"$MIRAS" serve -addr "$SHARD2_ADDR" -max-sessions 256 \
    -self "http://$SHARD2_ADDR" -members "$PEERS" &
PIDS+=($!)
wait_healthy "$SHARD1_ADDR"
wait_healthy "$SHARD2_ADDR"
"$MIRAS" route -addr "$ROUTER_ADDR" -members "$PEERS" &
PIDS+=($!)
wait_healthy "$ROUTER_ADDR"

SUMMARY="$WORK/loadgen_summary.json"

echo "==> replaying 2000-request zipf trace through the router"
"$MIRAS" load -target "http://$ROUTER_ADDR" \
    -requests 2000 -sessions 32 -concurrency 16 \
    -skew zipf -seed 7 -fail-on-5xx \
    -out "$SUMMARY"

grep -q '"errors_5xx": 0' "$SUMMARY" || {
    echo "loadgen summary reports 5xx errors:" >&2
    cat "$SUMMARY" >&2
    exit 1
}
grep -q '"throughput_rps": 0,' "$SUMMARY" && {
    echo "loadgen summary reports zero throughput:" >&2
    cat "$SUMMARY" >&2
    exit 1
}

echo "==> checking both shards served traffic (merged /metrics)"
metrics=$(fetch "$ROUTER_ADDR" /metrics)
for shard in "http://$SHARD1_ADDR" "http://$SHARD2_ADDR"; do
    echo "$metrics" | grep -q "miras_http_requests_total{.*shard=\"$shard\"" || {
        echo "merged /metrics has no request counters from $shard" >&2
        exit 1
    }
done

echo "==> drain/rehydrate round-trip across two processes"
SPILL="$WORK/spill"
mkdir -p "$SPILL"
"$MIRAS" serve -addr "$SPILL_A_ADDR" -spill-dir "$SPILL" &
PID_A=$!
PIDS+=("$PID_A")
wait_healthy "$SPILL_A_ADDR"

for i in 1 2 3; do
    post "$SPILL_A_ADDR" /v1/sessions \
        "{\"ensemble\":\"toy\",\"budget\":6,\"window_sec\":10,\"seed\":$i}" >/dev/null
    post "$SPILL_A_ADDR" "/v1/sessions/s$i/step" '{"allocation":[4,2]}' >/dev/null
    post "$SPILL_A_ADDR" "/v1/sessions/s$i/step" '{"allocation":[3,3]}' >/dev/null
    fetch "$SPILL_A_ADDR" "/v1/sessions/s$i/snapshot" >"$WORK/pre_s$i.json"
done

drained=$(post "$SPILL_A_ADDR" /v1/admin/drain '{}')
echo "$drained" | grep -q '"s1"' || {
    echo "drain did not spill s1: $drained" >&2
    exit 1
}
# Post-drain the session is gone: curl -sf yields an empty body on the
# 410, the /dev/tcp fallback prints the session_expired envelope.
after=$(fetch "$SPILL_A_ADDR" /v1/sessions/s1 2>/dev/null || true)
if [ -n "$after" ] && ! echo "$after" | grep -q session_expired; then
    echo "s1 still served after drain: $after" >&2
    exit 1
fi

"$MIRAS" serve -addr "$SPILL_B_ADDR" -spill-dir "$SPILL" &
PIDS+=($!)
wait_healthy "$SPILL_B_ADDR"
rehydrated=$(post "$SPILL_B_ADDR" /v1/admin/rehydrate '{}')
echo "$rehydrated" | grep -q '"s1"' || {
    echo "rehydrate did not restore s1: $rehydrated" >&2
    exit 1
}

for i in 1 2 3; do
    fetch "$SPILL_B_ADDR" "/v1/sessions/s$i/snapshot" >"$WORK/post_s$i.json"
    cmp -s "$WORK/pre_s$i.json" "$WORK/post_s$i.json" || {
        echo "snapshot for s$i is not byte-identical after drain→rehydrate" >&2
        diff "$WORK/pre_s$i.json" "$WORK/post_s$i.json" >&2 || true
        exit 1
    }
done

# The rehydrated sessions keep serving.
post "$SPILL_B_ADDR" /v1/sessions/s1/step '{"allocation":[4,2]}' | grep -q '"reward"' || {
    echo "rehydrated session cannot step" >&2
    exit 1
}

echo "==> loadgen summary:"
head -16 "$SUMMARY"
echo "OK"
