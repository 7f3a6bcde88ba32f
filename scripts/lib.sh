# Shared plumbing for the demo gates (loadgen_demo.sh, failover_demo.sh,
# obs_demo.sh). Source it after cd-ing to the repository root:
#
#   . scripts/lib.sh
#
# It creates the scratch directory $WORK, the background-process list PIDS
# (append every server you start: PIDS+=($!)), and an EXIT trap that kills
# those processes and removes $WORK, so a demo leaves nothing behind however
# it exits. build_miras builds the one binary the demos drive. The HTTP
# helpers prefer curl and fall back to bash's /dev/tcp, so the gates need
# nothing beyond the base image.

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# build_miras — build cmd/miras into $WORK and point MIRAS at it; the demos
# run "$MIRAS" serve|route|load.
build_miras() {
    echo "==> building miras"
    MIRAS="$WORK/miras"
    go build -o "$MIRAS" ./cmd/miras
}

# http_get CURLFLAGS ADDR PATH — GET a URL and print the body. The /dev/tcp
# fallback strips the status line and headers and prints the body whatever
# the status.
http_get() {
    local flags="$1" addr="$2" path="$3"
    if command -v curl >/dev/null 2>&1; then
        curl "$flags" "http://$addr$path"
    else
        local host="${addr%:*}" port="${addr##*:}"
        exec 3<>"/dev/tcp/$host/$port"
        printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$path" "$host" >&3
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

# fetch ADDR PATH — GET, failing (with curl) on a non-2xx status.
fetch() { http_get -sf "$@"; }

# fetch_any ADDR PATH — GET, printing the body even on a non-2xx status (a
# degraded router answers /healthz with 503 by design).
fetch_any() { http_get -s "$@"; }

# post ADDR PATH BODY — POST a JSON body and print the response body.
post() {
    local addr="$1" path="$2" body="$3"
    if command -v curl >/dev/null 2>&1; then
        curl -sf -X POST -d "$body" "http://$addr$path"
    else
        local host="${addr%:*}" port="${addr##*:}"
        exec 3<>"/dev/tcp/$host/$port"
        printf 'POST %s HTTP/1.0\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s' \
            "$path" "$host" "${#body}" "$body" >&3
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

# wait_healthy ADDR — poll /healthz for up to 5 s.
wait_healthy() {
    local addr="$1"
    for _ in $(seq 1 50); do
        if fetch "$addr" /healthz 2>/dev/null | grep -q ok; then
            return 0
        fi
        sleep 0.1
    done
    echo "server on $addr never became healthy" >&2
    return 1
}
