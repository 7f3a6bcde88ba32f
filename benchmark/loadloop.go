package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadWorkers is the number of load-generating goroutines in every serve
// phase. The requests are served in-process on the caller's goroutine, so
// this is also the server's concurrency.
const loadWorkers = 2

// sloUs is the latency limit of the open-loop phase: a request counts as
// served in time when it answers 2xx within 10 ms of its due moment.
const sloUs = 10_000

// outcome is what sending one operation produced.
type outcome struct {
	ok     bool  // 2xx and every response check passed
	window int32 // a step response's window number, else zero
}

// sample is one request of a phase. Times are nanoseconds on the phase's
// clock; in a closed loop a request is due the moment it is sent.
type sample struct {
	op              op
	due, sent, done int64
	outcome
}

// clock is the time source of the load loops; tests substitute a fake one.
type clock interface {
	now() int64
	// waitUntil returns once now() ≥ t.
	waitUntil(t int64)
}

// wallClock is real time since its creation.
type wallClock struct{ base time.Time }

func newWallClock() wallClock { return wallClock{base: time.Now()} }

func (c wallClock) now() int64 { return int64(time.Since(c.base)) }

// waitUntil sleeps only through waits of several milliseconds and yields
// through the rest. On the reference host a sleeping goroutine wakes about a
// millisecond late however short the sleep, and the gaps of a schedule at
// thousands of requests per second are shorter than that: sleeping through
// them would turn the timer's granularity into send lateness.
func (c wallClock) waitUntil(t int64) {
	for {
		left := t - c.now()
		if left <= 0 {
			return
		}
		if left > int64(4*time.Millisecond) {
			time.Sleep(time.Duration(left) - 2*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// closedLoop has each of workers goroutines send the next unsent operation
// as soon as its previous one completes, until dur has passed or ops run
// out. do sends operation i on worker w.
func closedLoop(clk clock, ops []op, workers int, dur time.Duration, do func(w, i int) outcome) []sample {
	perWorker := make([][]sample, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	end := clk.now() + int64(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<16)
			for {
				i := int(next.Add(1) - 1)
				sent := clk.now()
				if i >= len(ops) || sent >= end {
					break
				}
				o := do(w, i)
				out = append(out, sample{op: ops[i], due: sent, sent: sent, done: clk.now(), outcome: o})
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()
	return mergeSamples(perWorker)
}

// openLoop sends operation i at due[i] whatever the system's state: the
// schedule is dealt round-robin to workers goroutines, each of which waits
// for its own next due time. A worker still busy when a request falls due
// sends it late; its latency is nevertheless counted from the due time, so
// a stall is charged to every request it delays (no coordinated omission).
func openLoop(clk clock, ops []op, due []int64, workers int, do func(w, i int) outcome) []sample {
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	start := clk.now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]sample, 0, len(ops)/workers+1)
			for i := w; i < len(ops); i += workers {
				at := start + due[i]
				clk.waitUntil(at)
				sent := clk.now()
				o := do(w, i)
				out = append(out, sample{op: ops[i], due: at, sent: sent, done: clk.now(), outcome: o})
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()
	return mergeSamples(perWorker)
}

// mergeSamples returns all workers' samples in due order.
func mergeSamples(perWorker [][]sample) []sample {
	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].due < all[b].due })
	return all
}

// phaseStats summarises one phase's samples.
type phaseStats struct {
	sent, ok  int
	elapsed   time.Duration // first send to last completion
	latencyUs []float64     // done − due of every request, ascending
	lateUs    []float64     // sent − due, in due order
	inSLO     int           // ok and answered within sloUs of the due time
}

func summarize(samples []sample) phaseStats {
	st := phaseStats{sent: len(samples)}
	if len(samples) == 0 {
		return st
	}
	first, last := samples[0].sent, samples[0].done
	st.latencyUs = make([]float64, len(samples))
	st.lateUs = make([]float64, len(samples))
	for i, s := range samples {
		if s.sent < first {
			first = s.sent
		}
		if s.done > last {
			last = s.done
		}
		lat := float64(s.done-s.due) / 1e3
		st.latencyUs[i] = lat
		st.lateUs[i] = float64(s.sent-s.due) / 1e3
		if s.ok {
			st.ok++
			if lat <= sloUs {
				st.inSLO++
			}
		}
	}
	sort.Float64s(st.latencyUs)
	st.elapsed = time.Duration(last - first)
	return st
}

func (st phaseStats) rps() float64 {
	if st.elapsed <= 0 {
		return 0
	}
	return float64(st.sent) / st.elapsed.Seconds()
}

// cpuTick is the process's CPU time read at a moment of a phase's clock.
type cpuTick struct {
	at  int64
	cpu time.Duration
}

// cpuSampler reads the process's CPU time every period while a closed-loop
// phase runs, cutting the phase into intervals that can be judged one by
// one: a host stall then spoils one interval, not the phase's mean.
type cpuSampler struct {
	ticks []cpuTick
	stop  chan struct{}
	done  chan struct{}
}

func startCPUSampler(clk clock, period time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			s.ticks = append(s.ticks, cpuTick{at: clk.now(), cpu: cpuTime()})
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its readings.
func (s *cpuSampler) finish() []cpuTick {
	close(s.stop)
	<-s.done
	return s.ticks
}

// intervalCPUUs returns, for each interval between consecutive ticks, the
// CPU microseconds spent per request completed in it. Intervals in which
// nothing completed are skipped.
func intervalCPUUs(samples []sample, ticks []cpuTick) []float64 {
	done := make([]int64, len(samples))
	for i, s := range samples {
		done[i] = s.done
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	var cpuUs []float64
	j := 0
	for k := 1; k < len(ticks); k++ {
		for j < len(done) && done[j] < ticks[k-1].at {
			j++
		}
		n := 0
		for j < len(done) && done[j] < ticks[k].at {
			j++
			n++
		}
		if n > 0 {
			cpuUs = append(cpuUs, float64((ticks[k].cpu-ticks[k-1].cpu).Microseconds())/float64(n))
		}
	}
	return cpuUs
}

// p50Us is the median time from send to completion of a phase's requests.
func p50Us(samples []sample) float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.done-s.sent) / 1e3
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5)
}
