#!/usr/bin/env bash
# Serving-resilience gate: build miras, stand up a 2-shard fleet (shared
# spill directory, continuous snapshot sync) behind `miras route -failover`
# — retries, circuit breakers and active probes at their defaults, plus
# automated failover — then SIGKILL one shard at
# 40% of a seeded 2000-request Zipf trace. The replay must stay inside a
# 1% client-visible error budget, the dead shard's sessions must keep
# serving through the surviving shard, and the router's metrics must show
# the failover actually executed. `make failover-demo` runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

export MIRAS_INVARIANTS=1

ROUTER_ADDR="${FAILOVER_DEMO_ROUTER:-127.0.0.1:18095}"
SHARD1_ADDR="${FAILOVER_DEMO_SHARD1:-127.0.0.1:18096}"
SHARD2_ADDR="${FAILOVER_DEMO_SHARD2:-127.0.0.1:18097}"

. scripts/lib.sh

build_miras

PEERS="http://$SHARD1_ADDR,http://$SHARD2_ADDR"
SPILL="$WORK/spill"
mkdir -p "$SPILL"

echo "==> starting 2 shards (shared spill, 25ms snapshot sync) + resilient router"
"$MIRAS" serve -addr "$SHARD1_ADDR" -max-sessions 256 \
    -self "http://$SHARD1_ADDR" -members "$PEERS" \
    -spill-dir "$SPILL" -spill-sync-interval 25ms &
PIDS+=($!)
"$MIRAS" serve -addr "$SHARD2_ADDR" -max-sessions 256 \
    -self "http://$SHARD2_ADDR" -members "$PEERS" \
    -spill-dir "$SPILL" -spill-sync-interval 25ms &
SHARD2_PID=$!
PIDS+=("$SHARD2_PID")
wait_healthy "$SHARD1_ADDR"
wait_healthy "$SHARD2_ADDR"
"$MIRAS" route -addr "$ROUTER_ADDR" -members "$PEERS" -failover &
PIDS+=($!)
wait_healthy "$ROUTER_ADDR"

echo "==> seeding sessions through the router; recording which live on shard 2"
for i in $(seq 1 8); do
    post "$ROUTER_ADDR" /v1/sessions \
        "{\"ensemble\":\"toy\",\"budget\":6,\"window_sec\":10,\"seed\":$i}" >/dev/null
done
VICTIM_IDS=$(fetch "$SHARD2_ADDR" /v1/sessions | tr ',{' '\n\n' \
    | grep -oE '"id": ?"r[0-9]+"' | grep -oE 'r[0-9]+' || true)
if [ -z "$VICTIM_IDS" ]; then
    echo "shard 2 holds no seeded sessions; cannot demonstrate failover" >&2
    exit 1
fi
echo "    shard 2 holds:" $VICTIM_IDS
for id in $VICTIM_IDS; do
    post "$ROUTER_ADDR" "/v1/sessions/$id/step" '{"allocation":[3,3]}' >/dev/null
done
sleep 0.3 # several spill-sync ticks: the victim's snapshots reach shared disk

SUMMARY="$WORK/failover_summary.json"

echo "==> replaying 2000-request zipf trace; SIGKILL shard 2 at 40% (1% error budget)"
"$MIRAS" load -target "http://$ROUTER_ADDR" \
    -requests 2000 -sessions 32 -concurrency 16 \
    -skew zipf -seed 7 -idempotency-keys \
    -chaos-kill-pid "$SHARD2_PID" -chaos-kill-at 0.4 \
    -error-budget 0.01 \
    -out "$SUMMARY"

grep -q '"within_error_budget": true' "$SUMMARY" || {
    echo "loadgen summary does not report within_error_budget=true:" >&2
    cat "$SUMMARY" >&2
    exit 1
}

echo "==> checking the dead shard's sessions keep serving through the router"
for id in $VICTIM_IDS; do
    fetch "$ROUTER_ADDR" "/v1/sessions/$id" | grep -q "\"$id\"" || {
        echo "session $id (owned by the dead shard) not served post-failover" >&2
        exit 1
    }
    post "$ROUTER_ADDR" "/v1/sessions/$id/step" '{"allocation":[3,3]}' \
        | grep -q '"reward"' || {
        echo "session $id cannot step post-failover" >&2
        exit 1
    }
done

echo "==> checking router metrics recorded the recovery"
metrics=$(fetch "$ROUTER_ADDR" /metrics)
echo "$metrics" | grep -qE 'miras_router_failover_total [1-9]' || {
    echo "miras_router_failover_total never incremented:" >&2
    echo "$metrics" | grep miras_router_failover_total >&2 || true
    exit 1
}
echo "$metrics" | grep -qE "miras_router_retries_total\{shard=\"http://$SHARD2_ADDR\"\} [1-9]" || {
    echo "no retries recorded against the killed shard:" >&2
    echo "$metrics" | grep miras_router_retries_total >&2 || true
    exit 1
}

healthz=$(fetch_any "$ROUTER_ADDR" /healthz)
echo "$healthz" | grep -q "\"failover_to\":\"http://$SHARD1_ADDR\"" || {
    echo "router /healthz does not show shard 2 failed over to shard 1: $healthz" >&2
    exit 1
}

echo "==> loadgen summary:"
head -16 "$SUMMARY"
echo "$healthz"
echo "OK"
