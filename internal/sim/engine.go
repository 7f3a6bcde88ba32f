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

// HandlerID names a Handler registered with Engine.Register. IDs are dense,
// from 1; the zero ID is reserved for the callbacks Schedule and ScheduleAt
// park in the engine's slot table.
type HandlerID uint32

// callID is the reserved HandlerID of a slot-table callback; its record's arg
// is the slot.
const callID HandlerID = 0

// record is one scheduled event. Records live by value in the engine's heap,
// ordered by (at, seq) so simultaneous events fire in FIFO schedule order,
// keeping runs reproducible. A record holds no pointer: the garbage collector
// never scans the heap, and sifting it moves plain words, with no write
// barriers.
type record struct {
	at  Time
	seq uint64
	arg uint64
	h   HandlerID
}

func (r *record) before(o *record) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// arity is the heap's fan-out. A 4-ary heap is half as deep as a binary one,
// and a node's four children are 128 contiguous bytes. Every (at, seq) is
// distinct, so any heap shape pops the same order.
const arity = 4

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; in this repository each experiment owns one engine. The
// zero Engine is ready to use.
//
// There is no Cancel: an owner that withdraws events (the cluster, on a
// scale-down or a crash) drops its own token and lets the record fire as a
// no-op in its (at, seq) slot.
type Engine struct {
	now  Time
	heap []record // 4-ary min-heap on (at, seq)
	seq  uint64

	// handlers holds the registered handlers; HandlerID i is handlers[i-1].
	handlers []Handler
	// calls holds the pending Schedule/ScheduleAt callbacks by slot, and
	// free the vacated slots, reused last-in first-out.
	calls []func()
	free  []uint64
}

// NewEngine returns an engine at time 0 with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Register adds h to the engine's handlers and returns the ID that
// ScheduleCall takes. An owner registers once, typically when it is built,
// and the registration lasts as long as the engine.
func (e *Engine) Register(h Handler) HandlerID {
	if h == nil {
		panic("sim: nil event handler")
	}
	e.handlers = append(e.handlers, h)
	return HandlerID(len(e.handlers))
}

// Schedule registers fn to run after the given non-negative delay.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleAt(e.after(delay), fn)
}

// ScheduleAt registers fn to run at absolute virtual time t, which must not
// be in the past. fn waits in a slot of the engine's table, and its record
// carries the slot.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.check(t)
	var slot uint64
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.calls[slot] = fn
	} else {
		slot = uint64(len(e.calls))
		e.calls = append(e.calls, fn)
	}
	e.push(t, callID, slot)
}

// ScheduleCall arranges for the handler registered as id to Fire(arg) after
// the given non-negative delay. It is the allocation-free entry point for
// owners that dispatch their own events.
func (e *Engine) ScheduleCall(delay Time, id HandlerID, arg uint64) {
	if id == callID || int(id) > len(e.handlers) {
		panic(fmt.Sprintf("sim: unregistered handler %d", id))
	}
	t := e.after(delay)
	e.check(t)
	e.push(t, id, arg)
}

// after returns the virtual time delay from now; delay must not be negative.
func (e *Engine) after(delay Time) Time {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	return e.now + delay
}

// check panics unless t is a valid event time: not NaN, not in the past.
func (e *Engine) check(t Time) {
	if t != t {
		panic("sim: schedule at NaN")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
}

// push sifts a new record up from the heap's tail.
func (e *Engine) push(t Time, h HandlerID, arg uint64) {
	r := record{at: t, seq: e.seq, arg: arg, h: h}
	e.seq++
	e.heap = append(e.heap, r)
	q := e.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !r.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = r
}

// pop removes and returns the earliest record, sifting the tail record down
// from the root.
func (e *Engine) pop() record {
	q := e.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.heap = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := min(c+arity, n)
		for k := c + 1; k < end; k++ {
			if q[k].before(&q[c]) {
				c = k
			}
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

// fire advances the clock to r and runs it. A slot-table callback's slot is
// vacated before the callback runs, so whatever the callback schedules may
// reuse it.
func (e *Engine) fire(r record) {
	if invariant.Enabled() && r.at < e.now {
		invariant.Fail("sim/monotonic-time",
			"event scheduled at %g fired with clock already at %g", r.at, e.now)
	}
	e.now = r.at
	if r.h != callID {
		e.handlers[r.h-1].Fire(r.arg)
		return
	}
	fn := e.calls[r.arg]
	e.calls[r.arg] = nil
	e.free = append(e.free, r.arg)
	fn()
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
