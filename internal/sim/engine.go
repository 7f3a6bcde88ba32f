// Package sim provides the deterministic discrete-event simulation engine
// underneath the microservice workflow cluster emulation.
//
// The paper's experiments run on a real Google Cloud cluster where one
// control interaction takes a 30-second wall-clock window. This engine
// replaces the wall clock with virtual time so tens of thousands of control
// interactions can be simulated in seconds while preserving event ordering
// and latency semantics. Determinism is guaranteed: events at equal
// timestamps fire in schedule order, and all randomness flows through
// explicitly seeded streams (see rng.go).
package sim

import (
	"fmt"

	"miras/internal/invariant"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// Handler receives the events an owner schedules with Engine.ScheduleCall.
// arg is the owner's own payload, returned unchanged; an owner that needs to
// cancel an event encodes a token in it and ignores the call once it has
// dropped that token.
type Handler interface {
	Fire(arg uint64)
}

// funcHandler adapts a callback to Handler. A func value is pointer-shaped,
// so storing one in a Handler allocates nothing.
type funcHandler func()

func (f funcHandler) Fire(uint64) { f() }

// record is one scheduled event. Records live by value in the engine's heap,
// ordered by (at, seq) so simultaneous events fire in FIFO schedule order,
// keeping runs reproducible.
type record struct {
	at  Time
	seq uint64
	h   Handler
	arg uint64
}

func (r *record) before(o *record) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; in this repository each experiment owns one engine.
//
// There is no Cancel: an owner that withdraws events (the cluster, on a
// scale-down or a crash) drops its own token and lets the record fire as a
// no-op in its (at, seq) slot.
type Engine struct {
	now  Time
	heap []record // binary min-heap on (at, seq)
	seq  uint64
}

// NewEngine returns an engine at time 0 with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run after the given non-negative delay.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleAt(e.after(delay), fn)
}

// ScheduleAt registers fn to run at absolute virtual time t, which must not
// be in the past.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.push(t, funcHandler(fn), 0)
}

// ScheduleCall registers h.Fire(arg) to run after the given non-negative
// delay. It is the allocation-free entry point for owners that dispatch
// their own events.
func (e *Engine) ScheduleCall(delay Time, h Handler, arg uint64) {
	if h == nil {
		panic("sim: nil event handler")
	}
	e.push(e.after(delay), h, arg)
}

// after returns the virtual time delay from now; delay must not be negative.
func (e *Engine) after(delay Time) Time {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	return e.now + delay
}

// push validates t and sifts a new record up from the heap's tail.
func (e *Engine) push(t Time, h Handler, arg uint64) {
	if t != t {
		panic("sim: schedule at NaN")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	r := record{at: t, seq: e.seq, h: h, arg: arg}
	e.seq++
	e.heap = append(e.heap, r)
	q := e.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !r.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = r
}

// pop removes and returns the earliest record, sifting the tail record down
// from the root. The vacated slot is zeroed so the heap's spare capacity
// does not keep a fired handler reachable.
func (e *Engine) pop() record {
	q := e.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = record{}
	q = q[:n]
	e.heap = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// fire advances the clock to r and runs it.
func (e *Engine) fire(r record) {
	if invariant.Enabled() && r.at < e.now {
		invariant.Fail("sim/monotonic-time",
			"event scheduled at %g fired with clock already at %g", r.at, e.now)
	}
	e.now = r.at
	r.h.Fire(r.arg)
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired (false when the queue is
// empty). An event its owner has withdrawn counts: it fires as a no-op.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fire(e.pop())
	return true
}

// RunUntil fires every event scheduled at or before t in timestamp order,
// then advances the clock to exactly t. Events that callbacks schedule
// within the horizon are fired too.
func (e *Engine) RunUntil(t Time) {
	if t != t {
		panic("sim: RunUntil(NaN)")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%g) before now %g", t, e.now))
	}
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.fire(e.pop())
	}
	e.now = t
}
