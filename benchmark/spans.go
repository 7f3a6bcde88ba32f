package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// noSpan is the parent of a root span.
const noSpan int32 = -1

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test is not instrumented). Times are nanoseconds
// since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated in-memory buffer; nothing is written
// while a workload runs. Slots are claimed with one atomic add, so the two
// load workers record without a lock. When off, start returns noSpan after
// a single atomic load — the cost the untraced run pays for sharing its
// code path with the traced one.
type tracer struct {
	on      atomic.Bool
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	// forgotten counts the spans reset has discarded, so that total still
	// covers the whole run.
	forgotten int
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start opens a span under parent and returns its id, or noSpan when the
// tracer is off or full (a full buffer is counted, never grown, so tracing
// cannot allocate in the measured path).
func (t *tracer) start(name string, parent int32) int32 {
	if !t.on.Load() {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{Name: name, Parent: parent, Start: t.now()}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = t.now()
	}
}

// recorded returns the finished spans. Call it only after every goroutine
// that records has stopped.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// reset forgets every recorded span so the buffer can be reused; total and
// dropped keep counting across resets.
func (t *tracer) reset() {
	t.forgotten += len(t.recorded())
	t.next.Store(0)
}

// total is the number of spans recorded since the tracer was created.
func (t *tracer) total() int { return t.forgotten + len(t.recorded()) }

// dump writes the recorded spans to path as one JSON array.
func (t *tracer) dump(path string) error {
	data, err := json.Marshal(t.recorded())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

// withSpan and spanFrom carry the current span through a request's context,
// which is how a span opened in the load generator becomes the parent of the
// router's span and that of the shard's: the router derives its upstream
// request from the incoming request's context.
func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return noSpan
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Overlapping children (two
// workers under one phase span) are merged before subtracting, and a child
// is clipped to its parent's interval, so self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] -= covered
	}
	return self
}

// spanAgg is the per-name summary of a set of spans.
type spanAgg struct {
	count  int
	durNs  int64
	selfNs int64
}

func (a spanAgg) meanUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.durNs) / float64(a.count) / 1e3
}

func (a spanAgg) meanSelfUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.count) / 1e3
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]spanAgg {
	self := selfTimes(spans)
	out := make(map[string]spanAgg)
	for i, s := range spans {
		a := out[s.Name]
		a.count++
		a.durNs += s.End - s.Start
		a.selfNs += self[i]
		out[s.Name] = a
	}
	return out
}
