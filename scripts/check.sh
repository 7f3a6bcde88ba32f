#!/usr/bin/env bash
# The pre-commit gate: format check, vet, build, the full test suite (which
# includes the golden end-to-end gate and the fuzz seed corpora), the race
# detector over every package, and the benchmark's smoke run. `make check`
# runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

# Everything under the race detector: most packages are single-threaded and
# cheap, and a hand-kept list of "goroutine packages" went stale every time
# a package grew a goroutine.
echo "==> go test -race ./..."
go test -race ./...

# The benchmark's four workloads at tiny sizes with every correctness check
# live. Timing verdicts are `make bench`'s job (repeats, quartiles, matched
# hosts), not a pre-commit gate's.
echo "==> go run ./benchmark -smoke"
go run ./benchmark -smoke

echo "OK"
