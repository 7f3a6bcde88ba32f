# Developer entry points. `make test` is the whole verify: the end-to-end
# checks (golden manifest, resume, fleet, failover) are tests in cmd/miras.
# `make check` is the pre-commit gate; `make bench` measures this tree with
# the repository's one performance instrument (benchmark/, declared in
# BENCHMARK.json) and compares it with the committed baseline.

GO ?= go

.PHONY: build test vet race check bench benchmark-smoke fmt fuzz-smoke test-purego test-fma

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

# The pure-Go kernels are what every platform but amd64 runs: the golden
# end-to-end file and the pinned digests must hold on them too. envmodel and
# core carry the resume bit-identity tests over Adam and the model fit;
# httpapi and router serve the auto-step's decide through Matrix.MulVecTo,
# with no packed panels, and pin its allocations there.
test-purego:
	$(GO) test -tags purego ./internal/mat/ ./internal/nn/ ./internal/rl/ ./internal/envmodel/ ./internal/core/ ./internal/experiments/ ./internal/httpapi/ ./internal/router/

# The lane tanh replays math.tanh and math.Exp's FMA path op for op. Under
# GOAMD64=v3 the compiler may emit FMA; Go 1.24 does not fuse math.tanh's
# polynomial there, and this target fails if a release starts to. The same
# holds for the emulator's log-normal draw, exp(μ + σ·z) with σ built once
# per task type: a fused σ·z + μ would move
# cluster.TestDeepQueueTrajectoryPinned, which sim, cluster and workload run
# here beside their engine and allocation pins. GODEBUG=cpu.fma=off sends
# math.Exp down its non-FMA path: the start-up probe must turn the lanes off
# and TanhTo must still equal math.Tanh, and the golden gates that differ
# there check their second digests (testdata/golden_nofma.json,
# golden_demo_nofma.sha256).
test-fma:
	GOAMD64=v3 $(GO) test ./internal/mat/ ./internal/nn/ ./internal/rl/ ./internal/envmodel/ ./internal/core/ ./internal/experiments/ ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./cmd/miras/
	GODEBUG=cpu.fma=off $(GO) test ./internal/mat/ ./internal/nn/ ./internal/rl/ ./internal/envmodel/ ./internal/core/ ./internal/experiments/ ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./cmd/miras/

# The pre-commit gate, stopping at the first failure: a format check that
# fails on any file gofmt would change, vet, build, the full test suite
# (the end-to-end checks and the fuzz seed corpora included), the pure-Go
# and FMA-path runs CI makes (test-purego, test-fma), the race detector
# over every package, and the benchmark's smoke run. Timing verdicts are
# `make bench`'s job, not a pre-commit gate's.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) test-purego test-fma
	$(GO) test -race ./...
	$(GO) run ./benchmark -smoke

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

# Short fuzz runs over five input surfaces, one property target and eight
# differential targets: the untrusted inputs (fault plans, HTTP session
# creation, session snapshots on restore, serialized networks and policy
# snapshots), ensemble validation (FuzzEnsembleSteps: any service times
# Ensemble.Validate accepts must build an env that steps a window), the
# event engine against its reference implementation (FuzzEngineOracle:
# decoded operation sequences must fire the same callbacks in the same order
# on both), the aux-only backward pass against the full one
# (FuzzAuxGradBatch: decoded networks must give the per-sample Backward's
# dAux bit for bit), the
# row-blocked mat-vec kernel against a plain ascending dot product
# (FuzzMulVecTo: decoded matrices must give bit-identical outputs), and the
# ZMM and AVX2 lane kernels against the pure-Go ones (FuzzGemmLanes: decoded
# shapes and raw float64 bits must give bit-identical products and rank-k
# updates on each set; it skips on a CPU without AVX2, its zmm subtests
# without AVX-512F), the Adam and soft-update lanes against
# their pure-Go loops (FuzzUpdateLanes: raw float64 bits and step counts
# must give bit-identical parameters and moments; it skips likewise), the
# fused bias-add and lane tanh against math.Tanh (FuzzTanhLanes: raw
# float64 bits of pre-activations and biases must give bit-identical
# results; its lane subtests skip where the lanes are not chosen at
# start-up), the tanh gradient pass against its plain loop
# (FuzzTanhGradLanes: raw float64 bits must give bit-identical dPre and
# bias gradients on each kernel set), and the appended step answer against encoding/json
# (FuzzStepResponseEncoding: raw float64 bits, nil and empty slices and any
# controller string must give json.Encoder's bytes, or its error).
# Go allows one -fuzz pattern per invocation, hence one run each; each
# extends the committed seed corpus in the package's testdata/fuzz/ only in
# the local build cache.
fuzz-smoke:
	$(GO) test ./internal/workflow/ -fuzz FuzzEnsembleSteps -fuzztime 10s
	$(GO) test ./internal/faults/ -fuzz FuzzFaultPlanValidate -fuzztime 10s
	$(GO) test ./internal/httpapi/ -fuzz FuzzHTTPCreateSession -fuzztime 10s
	$(GO) test ./internal/httpapi/ -fuzz FuzzSessionRestore -fuzztime 10s
	$(GO) test ./internal/httpapi/ -fuzz FuzzStepResponseEncoding -fuzztime 10s
	$(GO) test ./internal/nn/ -fuzz FuzzNetworkDecode -fuzztime 10s
	$(GO) test ./internal/nn/ -fuzz FuzzAuxGradBatch -fuzztime 10s
	$(GO) test ./internal/rl/ -fuzz FuzzPolicySnapshotDecode -fuzztime 10s
	$(GO) test ./internal/sim/ -fuzz FuzzEngineOracle -fuzztime 10s
	$(GO) test ./internal/mat/ -fuzz FuzzMulVecTo -fuzztime 10s
	$(GO) test ./internal/mat/ -fuzz FuzzGemmLanes -fuzztime 10s
	$(GO) test ./internal/mat/ -fuzz FuzzUpdateLanes -fuzztime 10s
	$(GO) test ./internal/mat/ -fuzz FuzzTanhLanes -fuzztime 10s
	$(GO) test ./internal/mat/ -fuzz FuzzTanhGradLanes -fuzztime 10s
