#!/usr/bin/env bash
# Observability smoke test: build miras, start `miras serve` on a local port,
# wait for /healthz, scrape /metrics, and fail unless the scrape contains
# actual miras/process metrics. `make obs-demo` runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

# The demo doubles as an invariant gate: every runtime check in the stack
# runs live, and a violation panics the run.
export MIRAS_INVARIANTS=1

ADDR="${OBS_DEMO_ADDR:-127.0.0.1:18080}"

. scripts/lib.sh
build_miras

echo "==> starting miras serve on $ADDR"
"$MIRAS" serve -addr "$ADDR" -sample-interval 200ms &
PIDS+=($!)

echo "==> waiting for /healthz"
wait_healthy "$ADDR"

echo "==> scraping /metrics"
metrics=$(fetch "$ADDR" /metrics)
if [ -z "$metrics" ]; then
    echo "/metrics returned an empty body" >&2
    exit 1
fi
echo "$metrics" | grep -q '^process_goroutines' || {
    echo "/metrics missing process metrics:" >&2
    echo "$metrics" >&2
    exit 1
}
echo "$metrics" | grep -q '^# TYPE' || {
    echo "/metrics missing Prometheus type metadata" >&2
    exit 1
}

echo "==> driving one traced session"
created=$(post "$ADDR" /v1/sessions '{"ensemble":"toy","budget":6,"window_sec":10}')
echo "$created" | grep -q '"id":"s1"' || {
    echo "session create failed: $created" >&2
    exit 1
}
post "$ADDR" /v1/sessions/s1/step '{"allocation":[4,2]}' | grep -q '"reward"' || {
    echo "session step failed" >&2
    exit 1
}

echo "==> scraping /v1/debug/traces"
traces=$(fetch "$ADDR" /v1/debug/traces)
echo "$traces" | grep -q '"name":"http.step"' || {
    echo "/v1/debug/traces missing the request root span: $traces" >&2
    exit 1
}
echo "$traces" | grep -q '"name":"session.step"' || {
    echo "/v1/debug/traces missing the session child span: $traces" >&2
    exit 1
}

echo "==> scraping /v1/debug/timeseries"
# The sampler runs every 200ms; give it a moment to take a sample that
# includes the session's series.
sleep 0.5
series=$(fetch "$ADDR" /v1/debug/timeseries)
echo "$series" | grep -q '"samples":' || {
    echo "/v1/debug/timeseries is not a snapshot dump: $series" >&2
    exit 1
}
echo "$series" | grep -q 'miras_http_requests_total' || {
    echo "/v1/debug/timeseries missing request counters: $series" >&2
    exit 1
}

echo "==> scraping /debug/dash"
dash=$(fetch "$ADDR" /debug/dash)
echo "$dash" | grep -q '<svg' || {
    echo "/debug/dash has no sparklines" >&2
    exit 1
}

echo "==> sample:"
echo "$metrics" | head -8
echo "OK"
