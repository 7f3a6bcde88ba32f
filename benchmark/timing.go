package main

import (
	"runtime"
	"sync"
	"time"
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// medianSetup builds the workload repeatedly — at least six times, and
// cheap builds for half a second (a twentieth in smoke mode) — and returns
// the median process CPU time of the later half of the builds; the last
// build is the one the run uses. CPU time, because a build is a few
// milliseconds of allocation and the host's stolen slices are as long; the
// later half, because the first builds of a process grow its heap. What the
// discarded builds allocated is collected before the caller starts measuring.
func medianSetup(cfg runConfig, build func() error) (time.Duration, error) {
	atLeast := time.Second / 2
	if cfg.Smoke {
		atLeast /= 10
	}
	var times []float64
	for start := time.Now(); len(times) < 6 || (time.Since(start) < atLeast && len(times) < 2000); {
		c0 := cpuTime()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, float64(cpuTime()-c0))
	}
	runtime.GC()
	return time.Duration(median(times[len(times)/2:])), nil
}

// probeUs calls fn (which performs batch operations per call) for about d
// after one warm-up call, and returns the mean microseconds per operation.
func probeUs(d time.Duration, batch int, fn func()) float64 {
	fn()
	calls := 0
	start := time.Now()
	for calls < 3 || time.Since(start) < d {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls*batch)
}

// spanCostNs measures what recording one span costs, once per process.
var spanCostNs = sync.OnceValue(func() float64 {
	const n = 1 << 14
	tr := newTracer(n)
	tr.on.Store(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start("probe", noSpan))
	}
	return float64(time.Since(start).Nanoseconds()) / n
})
