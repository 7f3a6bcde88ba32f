// Causal span tracing. A Tracer produces spans — named intervals with a
// trace id, a span id, a parent link and typed attributes — threaded
// through the training loop (iteration → collect/fit/improve/evaluate → env
// windows → cluster actuation) and the serving path (HTTP request →
// decide/step), so latency and failures can be attributed across component
// boundaries instead of inferred from flat counters. Something that happens
// at one instant (a scale decision, a dropped request, a consumer crash, a
// profile capture) is a zero-length span at that virtual time, nested under
// whatever span is ambient.
//
// Finished spans are exported two ways: as "span" lines on the Recorder's
// JSONL sink (the CLI -trace-out files), and into an in-process SpanRing
// served at GET /v1/debug/traces.

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TracerConfig configures a Tracer. The zero value is a valid (if silent)
// tracer: no sink, no ring, no profiler, wall-clock timestamps.
type TracerConfig struct {
	// Recorder, when non-nil, is the JSONL sink: it receives one "span"
	// record per finished span at or above its level. Its level also gates
	// StartDebug: debug spans run only when the Recorder accepts them.
	Recorder *Recorder
	// Ring, when non-nil, keeps the most recent finished spans in memory
	// for GET /v1/debug/traces.
	Ring *SpanRing
	// SimTime strips wall-clock fields from exported spans so seeded
	// traces are byte-identical across runs. Virtual timestamps come from
	// the clock installed by SetClock or the explicit T0/EndT calls.
	SimTime bool
	// SlowWall, when positive, marks spans whose wall duration exceeds it
	// as anomalies: each one triggers a "slow_span_<name>" profile (even in
	// sim-time mode, where the wall measurement is internal only).
	SlowWall time.Duration
	// Profiler, when non-nil, captures the rate-limited pprof profiles that
	// Trigger and slow spans ask for.
	Profiler *ProfileCapturer
}

// Tracer mints spans. Safe for concurrent use, except SetParent/SetClock
// which belong to single-goroutine setup and training loops. A nil *Tracer
// is valid and fully disabled.
type Tracer struct {
	cfg TracerConfig
	// clock, when non-nil, supplies virtual (simulation) time for spans
	// that do not set it explicitly; see SetClock.
	clock func() float64
	// ids is the trace/span id allocator. Sequential ids keep seeded
	// single-threaded traces deterministic; concurrent servers only need
	// uniqueness, which the atomic provides.
	ids  atomic.Uint64
	pool sync.Pool
	// cur is the ambient parent installed by SetParent — the mechanism the
	// single-goroutine training loop uses to parent spans created deep in
	// components (env windows, model fits) without threading a Span
	// through every signature. Servers never set it.
	cur parentRef
}

type parentRef struct {
	traceHi, traceLo uint64
	id               uint64
	ok               bool
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{cfg: cfg}
	t.pool.New = func() any { return &Span{attrs: make([]slog.Attr, 0, 16), line: make([]slog.Attr, 0, 24)} }
	return t
}

// SetClock installs the virtual-time source (typically the simulation
// engine's Now). Intended for single-goroutine setup; the experiment
// harness calls it once per built harness. Safe on a nil tracer.
func (t *Tracer) SetClock(fn func() float64) {
	if t != nil {
		t.clock = fn
	}
}

// Trigger captures an anomaly profile named for reason (e.g.
// "divergence_rollback", "hpa_fallback") through the tracer's Profiler and
// reports it as a zero-length "profile.capture" span carrying the reason
// and the capture's file stem. It returns whether a capture started: false
// when rate-limited, or when the tracer or its Profiler is absent.
func (t *Tracer) Trigger(reason string) bool {
	if t == nil {
		return false
	}
	file, ok, err := t.cfg.Profiler.capture(reason)
	if !ok {
		return false
	}
	sp := t.Start("profile.capture").Str("reason", reason).Str("file", file)
	if err != nil {
		sp.Str("heap_error", err.Error())
	}
	sp.End()
	return true
}

// Ring returns the tracer's span ring, or nil. Safe on a nil tracer.
func (t *Tracer) Ring() *SpanRing {
	if t == nil {
		return nil
	}
	return t.cfg.Ring
}

// SetParent installs sp as the ambient parent: every Start until the
// returned restore function runs creates a child of sp. Single-goroutine
// use only (the training loop); concurrent servers parent explicitly via
// Child. Safe on a nil tracer and a nil span.
func (t *Tracer) SetParent(sp *Span) (restore func()) {
	if t == nil {
		return func() {}
	}
	prev := t.cur
	if sp == nil {
		t.cur = parentRef{}
	} else {
		t.cur = parentRef{sp.traceHi, sp.traceLo, sp.id, true}
	}
	return func() { t.cur = prev }
}

// Start begins an info-level span. Under an ambient parent (SetParent) the
// span joins that trace; otherwise it roots a fresh one. Returns nil (all
// methods no-op) on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, slog.LevelInfo)
}

// StartDebug begins a debug-granularity span (per-minibatch and
// per-consumer hot-path instrumentation). It returns nil unless the
// tracer's Recorder accepts debug records.
func (t *Tracer) StartDebug(name string) *Span {
	if t == nil || !t.cfg.Recorder.enabled(slog.LevelDebug) {
		return nil
	}
	return t.start(name, slog.LevelDebug)
}

// StartRemote begins a root span continuing an incoming W3C traceparent
// header ("00-<32hex trace>-<16hex parent>-<2hex flags>"). An empty or
// malformed value starts a fresh trace instead.
func (t *Tracer) StartRemote(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	sp := t.start(name, slog.LevelInfo)
	if hi, lo, parent, ok := parseTraceparent(traceparent); ok {
		sp.traceHi, sp.traceLo, sp.parent = hi, lo, parent
	}
	return sp
}

func (t *Tracer) start(name string, level slog.Level) *Span {
	sp := t.pool.Get().(*Span)
	sp.tr, sp.level, sp.name = t, level, name
	if t.cur.ok {
		sp.traceHi, sp.traceLo = t.cur.traceHi, t.cur.traceLo
		sp.parent = t.cur.id
	} else {
		sp.traceHi, sp.traceLo = 0, t.ids.Add(1)
		sp.parent = 0
	}
	sp.id = t.ids.Add(1)
	// Wall time is always measured (the slow-span anomaly check needs it)
	// but only exported when the tracer is not in sim-time mode.
	sp.wallStart = time.Now()
	if t.clock != nil {
		sp.t0, sp.hasT0 = t.clock(), true
	} else {
		sp.t0, sp.hasT0 = 0, false
	}
	return sp
}

// Span is one in-flight traced interval. A nil *Span (disabled tracer)
// accepts the whole builder chain and End as no-ops. Spans are pooled:
// every started span must End exactly once, and must not be used after.
type Span struct {
	tr        *Tracer
	level     slog.Level
	traceHi   uint64
	traceLo   uint64
	id        uint64
	parent    uint64
	name      string
	wallStart time.Time
	t0        float64
	hasT0     bool
	attrs     []slog.Attr
	// line is the pooled scratch the JSONL record is assembled in.
	line []slog.Attr
}

// Child begins a span in the same trace with s as parent, at s's level.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.pool.Get().(*Span)
	c.tr, c.level, c.name = s.tr, s.level, name
	c.traceHi, c.traceLo, c.parent = s.traceHi, s.traceLo, s.id
	c.id = s.tr.ids.Add(1)
	c.wallStart = time.Now()
	if s.tr.clock != nil {
		c.t0, c.hasT0 = s.tr.clock(), true
	} else {
		c.t0, c.hasT0 = 0, false
	}
	return c
}

// T0 sets the span's virtual start time explicitly, overriding the clock.
func (s *Span) T0(simTime float64) *Span {
	if s == nil {
		return nil
	}
	s.t0, s.hasT0 = simTime, true
	return s
}

// Str attaches a string attribute.
func (s *Span) Str(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.String(k, v))
	return s
}

// Int attaches an int attribute.
func (s *Span) Int(k string, v int) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Int(k, v))
	return s
}

// Uint attaches a uint64 attribute.
func (s *Span) Uint(k string, v uint64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Uint64(k, v))
	return s
}

// F64 attaches a float attribute.
func (s *Span) F64(k string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Float64(k, v))
	return s
}

// Bool attaches a bool attribute.
func (s *Span) Bool(k string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Bool(k, v))
	return s
}

// Ints attaches an int-slice attribute (a JSON array). The slice is copied,
// so the caller may reuse it and a retained record never aliases it.
func (s *Span) Ints(k string, v []int) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Any(k, slices.Clone(v)))
	return s
}

// F64s attaches a float-slice attribute (a JSON array), copied like Ints.
func (s *Span) F64s(k string, v []float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, slog.Any(k, slices.Clone(v)))
	return s
}

// TraceID returns the span's 32-hex-digit W3C trace id ("" when disabled).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x%016x", s.traceHi, s.traceLo)
}

// Traceparent renders the W3C header value that downstream calls should
// carry to join this span's trace ("" when disabled).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("00-%016x%016x-%016x-01", s.traceHi, s.traceLo, s.id)
}

// End finishes the span at the clock's current virtual time (if a clock is
// installed), exports it, and recycles the builder.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.tr.clock != nil {
		s.finish(s.tr.clock(), true)
		return
	}
	s.finish(0, false)
}

// EndT finishes the span at the explicit virtual time t1.
func (s *Span) EndT(t1 float64) {
	if s == nil {
		return
	}
	s.finish(t1, true)
}

func (s *Span) finish(t1 float64, hasT1 bool) {
	tr := s.tr
	wall := time.Since(s.wallStart)
	if tr.cfg.SlowWall > 0 && wall > tr.cfg.SlowWall && tr.cfg.Profiler != nil {
		tr.Trigger("slow_span_" + s.name)
	}

	if rec := tr.cfg.Recorder; rec.enabled(s.level) {
		line := append(s.line[:0],
			slog.String("name", s.name),
			slog.String("trace", s.TraceID()),
			slog.Uint64("id", s.id))
		if s.parent != 0 {
			line = append(line, slog.Uint64("parent", s.parent))
		}
		if s.hasT0 {
			line = append(line, slog.Float64("t0", s.t0))
		}
		if hasT1 {
			line = append(line, slog.Float64("t1", t1))
		}
		if !tr.cfg.SimTime {
			line = append(line,
				slog.Float64("wall_start", float64(s.wallStart.UnixNano())/1e9),
				slog.Float64("wall_dur", wall.Seconds()))
		}
		line = append(line, s.attrs...)
		rec.logger.LogAttrs(context.Background(), s.level, "span", line...)
		s.line = line[:0]
	}
	if ring := tr.cfg.Ring; ring != nil {
		rec := SpanRecord{
			Trace:  s.TraceID(),
			ID:     fmt.Sprintf("%016x", s.id),
			Name:   s.name,
			T0:     s.t0,
			T1:     t1,
			Sim:    s.hasT0 || hasT1,
			Debug:  s.level < slog.LevelInfo,
			Parent: "",
		}
		if s.parent != 0 {
			rec.Parent = fmt.Sprintf("%016x", s.parent)
		}
		if !tr.cfg.SimTime {
			rec.WallStart = float64(s.wallStart.UnixNano()) / 1e9
			rec.WallDur = wall.Seconds()
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				rec.Attrs[a.Key] = a.Value.Resolve().Any()
			}
		}
		ring.Push(rec)
	}

	s.tr = nil
	s.attrs = s.attrs[:0]
	tr.pool.Put(s)
}

// parseTraceparent validates a W3C traceparent value and extracts the trace
// id halves and the parent span id.
func parseTraceparent(v string) (hi, lo, parent uint64, ok bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-yyyyyyyyyyyyyyyy-zz
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return 0, 0, 0, false
	}
	var err error
	if hi, err = strconv.ParseUint(v[3:19], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if lo, err = strconv.ParseUint(v[19:35], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if parent, err = strconv.ParseUint(v[36:52], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if hi == 0 && lo == 0 {
		return 0, 0, 0, false // all-zero trace id is invalid per spec
	}
	return hi, lo, parent, true
}

// --- context propagation ---

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp (unchanged when sp is nil).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// --- span ring ---

// SpanRecord is one finished span as exported at /v1/debug/traces.
type SpanRecord struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// T0 and T1 are virtual (simulation) timestamps in seconds; Sim
	// reports whether they were actually set.
	T0  float64 `json:"t0"`
	T1  float64 `json:"t1"`
	Sim bool    `json:"sim"`
	// WallStart (unix seconds) and WallDur (seconds) are zero in sim-time
	// mode.
	WallStart float64 `json:"wall_start,omitempty"`
	WallDur   float64 `json:"wall_dur,omitempty"`
	// Debug marks debug-granularity spans.
	Debug bool           `json:"debug,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanRing keeps the most recent finished spans in a fixed-capacity ring.
// Safe for concurrent use; a nil *SpanRing swallows everything.
type SpanRing struct {
	mu   sync.Mutex
	buf  []SpanRecord
	head int // next write position
	n    int // live records
}

// NewSpanRing returns a ring holding the last capacity spans (minimum 1).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]SpanRecord, capacity)}
}

// Push appends one finished span, evicting the oldest at capacity. Safe on
// a nil ring.
func (r *SpanRing) Push(rec SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.head] = rec
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans. Safe on a nil ring.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Records returns the retained spans, oldest first. Safe on a nil ring.
func (r *SpanRing) Records() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// DropSession removes every retained span whose "session" attribute equals
// id — the DELETE /v1/sessions/{id} cleanup hook — and returns how many it
// removed. Safe on a nil ring.
func (r *SpanRing) DropSession(id string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := make([]SpanRecord, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	dropped := 0
	for i := 0; i < r.n; i++ {
		rec := r.buf[(start+i)%len(r.buf)]
		if s, ok := rec.Attrs["session"].(string); ok && s == id {
			dropped++
			continue
		}
		kept = append(kept, rec)
	}
	if dropped == 0 {
		return 0
	}
	clear(r.buf)
	copy(r.buf, kept)
	r.head = len(kept) % len(r.buf)
	r.n = len(kept)
	return dropped
}

// Handler serves the ring as a JSON array (oldest first) — the
// GET /v1/debug/traces endpoint.
func (r *SpanRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		recs := r.Records()
		if recs == nil {
			recs = []SpanRecord{}
		}
		_ = json.NewEncoder(w).Encode(recs)
	})
}
