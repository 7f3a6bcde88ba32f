// Package parallel provides the bounded worker pool behind the
// embarrassingly-parallel budget-sweep points.
//
// The pool is deliberately deterministic: callers hand it n independent,
// index-addressed work items, each item derives all of its randomness from
// its own index (its seed), and results are written into index i of a
// caller-owned slice. Scheduling order therefore cannot leak
// into results — a parallel run produces bit-for-bit the output of a
// sequential one, which the experiments package verifies in its tests.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the number of concurrently executing work items across
// each For call. 0 means "use GOMAXPROCS at call time".
var maxWorkers atomic.Int64

// SetMaxWorkers overrides the worker bound: n ≤ 0 restores the default
// (GOMAXPROCS at call time), 1 forces sequential in-goroutine execution.
// It is safe to call concurrently with running pools; running pools keep
// their bound.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int64(n))
}

// MaxWorkers returns the current worker bound resolved against GOMAXPROCS.
func MaxWorkers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(0) … fn(n−1) on a bounded worker pool and blocks until all
// have returned. fn must confine its writes to data owned by item i. All
// items run regardless of failures (they are independent); the returned
// error is the lowest-index one, matching what a sequential loop over the
// surviving items would report first.
func For(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
