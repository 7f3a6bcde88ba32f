# Developer entry points. `make check` is the pre-commit gate; `make bench`
# measures this tree with the repository's one performance instrument
# (benchmark/, declared in BENCHMARK.json) and compares it with the committed
# baseline.

GO ?= go

.PHONY: build test vet race check bench benchmark-smoke fmt fuzz-smoke obs-demo chaos-demo golden-demo resume-demo loadgen-demo failover-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detect everything. Most packages are single-threaded and cheap under
# the detector; the ones that matter spawn goroutines (the worker pool, the
# HTTP server, the metrics registry) and stay covered without a hand-kept
# list going stale.
race:
	$(GO) test -race ./...

check:
	./scripts/check.sh

# Every workload untraced then traced, three times, into bench-result.json
# (git-ignored), then the end-to-end medians against the committed baseline
# under BENCHMARK.json's 25 % bounds: ok / worse / unresolved per (metric,
# workload). A `worse` row fails the target. Exit 2 from -compare — the
# baseline was recorded on a different host (nproc or CPU model) — is reported
# as unresolved, not as a failure: numbers from unmatched hosts are not
# evidence either way. The binary is built first because `go run` flattens
# every exit status to 1.
bench:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/benchmark" ./benchmark; \
	"$$bin/benchmark" -repeat 3 -out bench-result.json; \
	rc=0; "$$bin/benchmark" -compare benchmark/results/baseline.json bench-result.json || rc=$$?; \
	if [ $$rc -eq 2 ]; then \
		echo "bench: unresolved — bench-result.json and benchmark/results/baseline.json are not comparable (see above); not a regression verdict"; \
		exit 0; \
	fi; \
	exit $$rc

# All four benchmark workloads at tiny sizes with every correctness check
# live (determinism replay, conservation, zero failed operations, the serve
# checker) — seconds, no timing verdict. The last step of `make check`.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

fmt:
	gofmt -l -w .

# Short fuzz runs over the untrusted input surfaces (workflow JSON, fault
# plans, HTTP session creation, serialized networks and policy snapshots).
# Go allows one -fuzz pattern per invocation, hence one run each; each
# extends the committed seed corpus in the package's testdata/fuzz/ only in
# the local build cache.
fuzz-smoke:
	$(GO) test ./internal/workflow/ -fuzz FuzzWorkflowJSON -fuzztime 10s
	$(GO) test ./internal/faults/ -fuzz FuzzFaultPlanValidate -fuzztime 10s
	$(GO) test ./internal/httpapi/ -fuzz FuzzHTTPCreateSession -fuzztime 10s
	$(GO) test ./internal/nn/ -fuzz FuzzNetworkDecode -fuzztime 10s
	$(GO) test ./internal/rl/ -fuzz FuzzPolicySnapshotDecode -fuzztime 10s

# Smoke-test the observability surface: start `miras serve`, scrape
# /metrics, and fail unless it serves non-empty Prometheus output.
obs-demo:
	./scripts/obs_demo.sh

# Determinism smoke test for the fault-injection layer: run a short seeded
# chaos experiment twice and fail unless the CSVs are byte-identical.
chaos-demo:
	./scripts/chaos_demo.sh

# Golden end-to-end regression gate: seeded short-horizon train / compare /
# chaos runs (invariants live) whose CSV sha256s are pinned in
# scripts/testdata/golden_demo.sha256. Refresh with scripts/golden_demo.sh --update.
golden-demo:
	./scripts/golden_demo.sh

# Crash-safety gate: train, SIGTERM mid-run after a checkpoint lands, resume
# from the checkpoint directory, and fail unless the stitched-together run's
# CSVs are byte-identical to an uninterrupted run's (invariants live).
resume-demo:
	./scripts/resume_demo.sh

# Horizontal-scaling gate: 2 `miras serve` shards behind `miras route`, a
# seeded 2000-request Zipf trace from `miras load` with zero tolerated 5xx,
# and a drain→rehydrate byte-identity round-trip across two processes
# sharing a spill directory.
loadgen-demo:
	./scripts/loadgen_demo.sh

# Serving-resilience gate: `miras route -failover` (retries, breakers and
# probes at their defaults, plus automated failover) over 2 shards sharing
# a spill directory; one shard is SIGKILLed at 40% of a seeded Zipf trace
# and the replay must stay inside a 1% error budget with the dead shard's
# sessions still serving.
failover-demo:
	./scripts/failover_demo.sh
