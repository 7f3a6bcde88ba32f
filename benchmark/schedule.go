package main

import "math/rand"

// opKind is what one trace entry asks of a session.
type opKind uint8

const (
	opStep  opKind = iota // POST …/step with an empty body: the policy decides
	opInfo                // GET the session
	opReset               // POST …/reset
	opBurst               // POST …/burst with paper burst Burst
)

var opNames = [...]string{"step", "info", "reset", "burst"}

// op is one request of a trace.
type op struct {
	Session int32
	Kind    opKind
	Burst   uint8
}

// traceSpec is a serve workload's traffic mix.
type traceSpec struct {
	Sessions int
	// ZipfS is the Zipf exponent of the session choice; zero picks
	// sessions uniformly.
	ZipfS float64
	// StepShare is the fraction of chosen operations that are steps; the
	// rest read the session.
	StepShare float64
	// ResetEvery, when positive, puts a reset and a burst before every
	// ResetEvery-th step of a session, so a session's backlog is periodic
	// instead of ever growing.
	ResetEvery int
}

// genOps returns the n-operation trace of spec for seed. The program under
// test never sees the seed, only these operations.
func genOps(seed int64, n int, spec traceSpec) []op {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if spec.ZipfS > 1 && spec.Sessions > 1 {
		zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Sessions-1))
	}
	steps := make([]int, spec.Sessions)
	ops := make([]op, 0, n)
	for len(ops) < n {
		var sess int
		if zipf != nil {
			sess = int(zipf.Uint64())
		} else {
			sess = rng.Intn(spec.Sessions)
		}
		if rng.Float64() >= spec.StepShare {
			ops = append(ops, op{Session: int32(sess), Kind: opInfo})
			continue
		}
		steps[sess]++
		if spec.ResetEvery > 0 && steps[sess]%spec.ResetEvery == 0 {
			burst := uint8(steps[sess] / spec.ResetEvery % 3)
			ops = append(ops,
				op{Session: int32(sess), Kind: opReset},
				op{Session: int32(sess), Kind: opBurst, Burst: burst})
		}
		ops = append(ops, op{Session: int32(sess), Kind: opStep})
	}
	return ops[:n]
}

// genSchedule returns n Poisson arrival times at rps requests per second,
// as nanoseconds from the start of the phase.
func genSchedule(seed int64, n int, rps float64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rps
		due[i] = int64(t * 1e9)
	}
	return due
}

// hottestShare returns the busiest session's share of ops, in percent.
func hottestShare(ops []op, sessions int) float64 {
	if len(ops) == 0 {
		return 0
	}
	counts := make([]int, sessions)
	hot := 0
	for _, o := range ops {
		counts[o.Session]++
		if counts[o.Session] > hot {
			hot = counts[o.Session]
		}
	}
	return 100 * float64(hot) / float64(len(ops))
}
