package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerFullChainSafe(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() float64 { return 1 })
	if tr.Ring() != nil {
		t.Fatalf("nil tracer Ring() = %v, want nil", tr.Ring())
	}
	restore := tr.SetParent(nil)
	restore()

	sp := tr.Start("x")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp = sp.Child("y").Str("k", "v").Int("i", 1).Uint("u", 2).F64("f", 3).Bool("b", true).
		Ints("is", []int{1}).F64s("fs", []float64{1}).T0(1)
	if sp != nil {
		t.Fatalf("nil span chain = %v, want nil", sp)
	}
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q, want empty", got)
	}
	if got := sp.Traceparent(); got != "" {
		t.Fatalf("nil span Traceparent = %q, want empty", got)
	}
	sp.End()
	sp.EndT(5)
	tr.StartDebug("d").End()
	tr.StartRemote("r", "").End()
	if tr.Trigger("x") {
		t.Fatal("nil tracer Trigger reported a capture")
	}
}

func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	sinkless := NewTracer(TracerConfig{})
	action, wip := []int{4, 2}, []float64{1, 2}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("decide").Str("session", "s1").Int("window", 3).F64("reward", 1.5)
		c := sp.Child("fit").Uint("epoch", 2).Bool("ok", true).T0(1)
		c.EndT(2)
		sp.End()
		tr.Start("env.window").T0(0).Int("window", 3).Ints("action", action).F64s("wip", wip).EndT(30)
		tr.StartDebug("ddpg.update").Uint("update", 7).Str("k", "v").Bool("ok", true).End()
		tr.Trigger("hpa_fallback")
		// A sink-less, profiler-less tracer skips debug spans and triggers
		// just as cheaply.
		sinkless.StartDebug("ddpg.update").Ints("action", action).End()
		sinkless.Trigger("hpa_fallback")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("decide").Str("session", "s1").Int("window", i)
		sp.Child("fit").F64("loss", 0.5).End()
		sp.End()
	}
}

func TestSpanEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, slog.LevelDebug)
	tr := NewTracer(TracerConfig{Recorder: rec, SimTime: true})

	root := tr.Start("request").Str("endpoint", "step")
	restore := tr.SetParent(root)
	child := tr.Start("env.window").T0(10)
	child.EndT(40)
	restore()
	root.End()

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2", len(lines))
	}
	c, r := lines[0], lines[1]
	for _, m := range lines {
		if m["msg"] != "span" {
			t.Fatalf("msg = %v, want span", m["msg"])
		}
		if _, ok := m["wall_start"]; ok {
			t.Fatalf("sim-time span leaked wall_start: %v", m)
		}
		if _, ok := m["wall_dur"]; ok {
			t.Fatalf("sim-time span leaked wall_dur: %v", m)
		}
	}
	if c["name"] != "env.window" || r["name"] != "request" {
		t.Fatalf("names: child=%v root=%v", c["name"], r["name"])
	}
	if c["trace"] != r["trace"] {
		t.Fatalf("child trace %v != root trace %v", c["trace"], r["trace"])
	}
	if c["parent"] != r["id"] {
		t.Fatalf("child parent %v != root id %v", c["parent"], r["id"])
	}
	if _, ok := r["parent"]; ok {
		t.Fatalf("root span has parent: %v", r)
	}
	if c["t0"].(float64) != 10 || c["t1"].(float64) != 40 {
		t.Fatalf("child t0/t1 = %v/%v, want 10/40", c["t0"], c["t1"])
	}
	if r["endpoint"] != "step" {
		t.Fatalf("root attr endpoint = %v", r["endpoint"])
	}
}

func TestSpanWallModeEmitsWallFields(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, slog.LevelDebug)
	tr := NewTracer(TracerConfig{Recorder: rec})
	tr.Start("req").End()
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d records, want 1", len(lines))
	}
	if _, ok := lines[0]["wall_start"]; !ok {
		t.Fatalf("wall-mode span missing wall_start: %v", lines[0])
	}
	if _, ok := lines[0]["wall_dur"]; !ok {
		t.Fatalf("wall-mode span missing wall_dur: %v", lines[0])
	}
}

// TestSpanTraceDeterministic pins the byte-identity guarantee: two tracers
// running the same seeded single-goroutine sequence in sim-time mode emit
// identical JSONL bytes.
func TestSpanTraceDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		rec := NewRecorder(&buf, slog.LevelDebug)
		clock := 0.0
		tr := NewTracer(TracerConfig{Recorder: rec, SimTime: true})
		tr.SetClock(func() float64 { return clock })
		for i := 0; i < 3; i++ {
			it := tr.Start("train.iteration").Int("iteration", i)
			restore := tr.SetParent(it)
			clock += 10
			tr.Start("collect").End()
			tr.StartDebug("ddpg.update").Uint("step", uint64(i)).End()
			restore()
			clock += 5
			it.End()
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sim-time traces differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `"name":"ddpg.update"`) {
		t.Fatalf("debug span missing from trace: %s", a)
	}
}

// TestStartDebugGatedByConfig: the Recorder's level is the one debug gate.
// Below debug (or with no Recorder at all, even with a ring) StartDebug
// returns nil and nothing reaches either sink; at debug it runs.
func TestStartDebugGatedByConfig(t *testing.T) {
	var buf bytes.Buffer
	ring := NewSpanRing(4)
	for _, tr := range []*Tracer{
		NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelInfo), Ring: ring}),
		NewTracer(TracerConfig{Ring: ring}),
	} {
		if sp := tr.StartDebug("hot"); sp != nil {
			t.Fatalf("StartDebug below a debug recorder = %v, want nil", sp)
		}
	}
	if buf.Len() != 0 || ring.Len() != 0 {
		t.Fatalf("gated debug span emitted output: %q, %d ring records", buf.String(), ring.Len())
	}

	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelDebug), Ring: ring})
	tr.StartDebug("hot").End()
	lines := decodeLines(t, &buf)
	if len(lines) != 1 || lines[0]["name"] != "hot" || lines[0]["level"] != "DEBUG" {
		t.Fatalf("debug recorder: lines %v, want one DEBUG span", lines)
	}
	if recs := ring.Records(); len(recs) != 1 || !recs[0].Debug {
		t.Fatalf("debug recorder: ring %+v, want one debug record", recs)
	}
}

func TestStartRemoteJoinsTraceparent(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	const header = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	sp := tr.StartRemote("req", header)
	if got := sp.TraceID(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("TraceID = %q", got)
	}
	out := sp.Traceparent()
	if !strings.HasPrefix(out, "00-0123456789abcdef0123456789abcdef-") || !strings.HasSuffix(out, "-01") {
		t.Fatalf("Traceparent = %q does not continue the incoming trace", out)
	}
	if out == header {
		t.Fatalf("Traceparent did not mint a new span id: %q", out)
	}
	sp.End()

	// Malformed headers root a fresh trace instead of failing.
	for _, bad := range []string{
		"",
		"00-short-span-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace
		"00-0123456789abcdef0123456789abcdeZ-00f067aa0ba902b7-01", // bad hex
		"0123456789abcdef0123456789abcdef-00f067aa0ba902b7",
	} {
		sp := tr.StartRemote("req", bad)
		if sp == nil {
			t.Fatalf("StartRemote(%q) = nil", bad)
		}
		if sp.TraceID() == "0123456789abcdef0123456789abcdef" {
			t.Fatalf("malformed header %q joined a trace", bad)
		}
		sp.End()
	}
}

func TestSpanTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.Start("a")
	hi, lo, parent, ok := parseTraceparent(sp.Traceparent())
	if !ok {
		t.Fatalf("own Traceparent %q does not parse", sp.Traceparent())
	}
	if hi != sp.traceHi || lo != sp.traceLo || parent != sp.id {
		t.Fatalf("round trip mismatch: got %x/%x/%x want %x/%x/%x",
			hi, lo, parent, sp.traceHi, sp.traceLo, sp.id)
	}
	sp.End()
}

func TestSpanRingCapacityAndOrder(t *testing.T) {
	ring := NewSpanRing(3)
	tr := NewTracer(TracerConfig{Ring: ring, SimTime: true})
	for i := 0; i < 5; i++ {
		tr.Start("s").Int("i", i).EndT(float64(i))
	}
	if ring.Len() != 3 {
		t.Fatalf("ring Len = %d, want 3", ring.Len())
	}
	recs := ring.Records()
	for i, want := range []float64{2, 3, 4} {
		if recs[i].T1 != want {
			t.Fatalf("recs[%d].T1 = %v, want %v (oldest-first eviction)", i, recs[i].T1, want)
		}
	}
}

func TestSpanRingRecordFields(t *testing.T) {
	ring := NewSpanRing(8)
	tr := NewTracer(TracerConfig{Ring: ring, SimTime: true})
	root := tr.Start("request").Str("session", "abc")
	child := root.Child("decide").T0(3)
	child.EndT(4)
	root.End()

	recs := ring.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	c, r := recs[0], recs[1]
	if c.Trace != r.Trace {
		t.Fatalf("trace mismatch: %q vs %q", c.Trace, r.Trace)
	}
	if c.Parent != r.ID {
		t.Fatalf("child Parent %q != root ID %q", c.Parent, r.ID)
	}
	if r.Parent != "" {
		t.Fatalf("root Parent = %q, want empty", r.Parent)
	}
	if c.T0 != 3 || c.T1 != 4 || !c.Sim {
		t.Fatalf("child times = %+v", c)
	}
	if r.WallStart != 0 || r.WallDur != 0 {
		t.Fatalf("sim-time record leaked wall fields: %+v", r)
	}
	if r.Attrs["session"] != "abc" {
		t.Fatalf("root Attrs = %v", r.Attrs)
	}
}

// TestSpanRingCopiesSlices: a ring record keeps the Ints/F64s values the
// span saw, after the caller overwrites its buffers.
func TestSpanRingCopiesSlices(t *testing.T) {
	ring := NewSpanRing(4)
	tr := NewTracer(TracerConfig{Ring: ring, SimTime: true})
	action, wip := []int{4, 2}, []float64{1.5, 0}
	tr.Start("env.window").Ints("action", action).F64s("wip", wip).EndT(1)
	action[0], wip[0] = 99, 99

	recs := ring.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if got, ok := recs[0].Attrs["action"].([]int); !ok || got[0] != 4 || got[1] != 2 {
		t.Fatalf("action = %v, want the attached [4 2]", recs[0].Attrs["action"])
	}
	if got, ok := recs[0].Attrs["wip"].([]float64); !ok || got[0] != 1.5 || got[1] != 0 {
		t.Fatalf("wip = %v, want the attached [1.5 0]", recs[0].Attrs["wip"])
	}
}

func TestSpanRingDropSession(t *testing.T) {
	ring := NewSpanRing(16)
	tr := NewTracer(TracerConfig{Ring: ring, SimTime: true})
	for i := 0; i < 4; i++ {
		tr.Start("step").Str("session", "keep").EndT(float64(i))
		tr.Start("step").Str("session", "gone").EndT(float64(i))
	}
	tr.Start("global").EndT(99)

	if got := ring.DropSession("gone"); got != 4 {
		t.Fatalf("DropSession removed %d, want 4", got)
	}
	recs := ring.Records()
	if len(recs) != 5 {
		t.Fatalf("ring kept %d records, want 5", len(recs))
	}
	for _, r := range recs {
		if s, ok := r.Attrs["session"].(string); ok && s == "gone" {
			t.Fatalf("dropped session record survived: %+v", r)
		}
	}
	// Order preserved, and the ring still accepts pushes.
	if recs[len(recs)-1].Name != "global" {
		t.Fatalf("order lost after DropSession: %+v", recs)
	}
	tr.Start("after").EndT(100)
	if ring.Len() != 6 {
		t.Fatalf("ring Len after push = %d, want 6", ring.Len())
	}
	if got := ring.DropSession("missing"); got != 0 {
		t.Fatalf("DropSession(missing) = %d, want 0", got)
	}

	var nilRing *SpanRing
	nilRing.Push(SpanRecord{})
	if nilRing.Len() != 0 || nilRing.Records() != nil || nilRing.DropSession("x") != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestSpanRingHandler(t *testing.T) {
	ring := NewSpanRing(4)
	tr := NewTracer(TracerConfig{Ring: ring, SimTime: true})
	tr.Start("a").EndT(1)

	rr := httptest.NewRecorder()
	ring.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/traces", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var recs []SpanRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &recs); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(recs) != 1 || recs[0].Name != "a" {
		t.Fatalf("records = %+v", recs)
	}

	// Empty ring serves [] rather than null.
	rr = httptest.NewRecorder()
	NewSpanRing(4).Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/traces", nil))
	if got := strings.TrimSpace(rr.Body.String()); got != "[]" {
		t.Fatalf("empty ring body = %q, want []", got)
	}
}

// TestSpanOnAnomaly: a slow span fires the tracer's profiler, and the
// capture is reported on the tracer's sink.
func TestSpanOnAnomaly(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{
		Recorder: NewRecorder(&buf, slog.LevelInfo),
		SimTime:  true, // anomaly detection works even when wall time is not exported
		SlowWall: time.Microsecond,
		Profiler: p,
	})
	sp := tr.Start("slow")
	time.Sleep(2 * time.Millisecond)
	sp.End()

	files := captureFiles(t, dir)
	if p.Captures() != 1 || len(files) != 1 || !strings.Contains(files[0], "slow_span_slow") {
		t.Fatalf("captures=%d files=%v, want one slow_span_slow capture", p.Captures(), files)
	}
	var capture map[string]any
	for _, m := range decodeLines(t, &buf) {
		if m["name"] == "profile.capture" {
			capture = m
		}
	}
	if capture == nil || capture["reason"] != "slow_span_slow" {
		t.Fatalf("no profile.capture span for the slow span: %s", buf.String())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	ring := NewSpanRing(1024)
	tr := NewTracer(TracerConfig{Ring: ring})
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.Start("req").Int("g", g)
				sp.Child("inner").End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := ring.Len(); got != goroutines*each*2 {
		t.Fatalf("ring holds %d spans, want %d", got, goroutines*each*2)
	}
	// Span ids must be unique across goroutines.
	seen := make(map[string]bool)
	for _, r := range ring.Records() {
		if seen[r.ID] {
			t.Fatalf("duplicate span id %q", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestContextSpanPropagation(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.Start("root")
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %v, want %v", got, sp)
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("empty context span = %v, want nil", got)
	}
	// Nil span leaves the context untouched.
	base := context.Background()
	if got := ContextWithSpan(base, nil); got != base {
		t.Fatal("ContextWithSpan(nil) wrapped the context")
	}
	sp.End()
}

func TestParseTraceparent(t *testing.T) {
	hi, lo, parent, ok := parseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok || hi != 0x0123456789abcdef || lo != 0x0123456789abcdef || parent != 0x00f067aa0ba902b7 {
		t.Fatalf("parse = %x/%x/%x/%v", hi, lo, parent, ok)
	}
	for _, bad := range []string{
		"",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-0", // short
		"00x0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdeg-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902bg-01",
	} {
		if _, _, _, ok := parseTraceparent(bad); ok {
			t.Fatalf("parseTraceparent(%q) accepted", bad)
		}
	}
}
