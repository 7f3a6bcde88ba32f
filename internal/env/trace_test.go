package env

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"miras/internal/cluster"
	"miras/internal/obs"
	"miras/internal/workflow"
)

// traceLines decodes every JSONL record the tracer's recorder wrote.
func traceLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// spans returns the span records named name, in trace order.
func spans(lines []map[string]any, name string) []map[string]any {
	var out []map[string]any
	for _, m := range lines {
		if m["msg"] == "span" && m["name"] == name {
			out = append(out, m)
		}
	}
	return out
}

// TestStepEmitsWindowEvents checks the env and cluster trace: every
// accepted Step produces one env.window span carrying the window's (s, a, r)
// and delay, with one cluster.scale span nested beneath it (plus consumer
// lifecycle spans at debug), and a rejected action produces a zero-length
// env.constraint_violation span without advancing time. The trace holds
// spans only.
func TestStepEmitsWindowEvents(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf, slog.LevelDebug), SimTime: true})

	e, err := New(Config{
		Cluster:   cluster.Config{Ensemble: workflow.Toy(), StartupDelayMin: 1, StartupDelayMax: 2},
		Seed:      11,
		Rates:     []float64{0},
		Budget:    6,
		WindowSec: 30,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Cluster()
	for i := 0; i < 10; i++ {
		c.Submit(0)
	}
	first, err := e.Step([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{3, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{9, 9}); err == nil {
		t.Fatal("over-budget action accepted")
	}

	lines := traceLines(t, &buf)
	for _, m := range lines {
		if m["msg"] != "span" {
			t.Fatalf("non-span record in the trace: %v", m)
		}
	}
	windows := spans(lines, "env.window")
	if len(windows) != 2 {
		t.Fatalf("env.window spans = %d, want 2:\n%v", len(windows), lines)
	}
	scales := spans(lines, "cluster.scale")
	if len(scales) != 2 {
		t.Fatalf("cluster.scale spans = %d, want 2", len(scales))
	}
	violations := spans(lines, "env.constraint_violation")
	if len(violations) != 1 {
		t.Fatalf("env.constraint_violation spans = %d, want 1", len(violations))
	}
	if v := violations[0]; v["t0"] != 60.0 || v["t1"] != 60.0 || v["total"] != 18.0 || v["budget"] != 6.0 {
		t.Fatalf("constraint violation = %v, want a zero-length span at t=60 with total 18, budget 6", v)
	}
	if len(spans(lines, "cluster.consumer_start")) == 0 {
		t.Fatal("no cluster.consumer_start spans despite scale-ups")
	}
	if len(spans(lines, "cluster.consumer_up")) == 0 {
		t.Fatal("no cluster.consumer_up spans despite windows longer than startup delay")
	}

	// Spot-check the first window's payload.
	w := windows[0]
	if w["window"] != 0.0 || w["t0"] != 0.0 || w["t1"] != 30.0 {
		t.Fatalf("first env.window window=%v over [%v, %v], want 0 over [0, 30]", w["window"], w["t0"], w["t1"])
	}
	a, ok := w["action"].([]any)
	if !ok || len(a) != 2 || a[0] != 2.0 || a[1] != 2.0 {
		t.Fatalf("first env.window action=%v, want [2 2]", w["action"])
	}
	wip, ok := w["wip"].([]any)
	if !ok || len(wip) != len(first.State) || wip[0] != first.State[0] || wip[1] != first.State[1] {
		t.Fatalf("first env.window wip=%v, want the returned state %v", w["wip"], first.State)
	}
	if w["reward"] != first.Reward || w["mean_delay"] != first.Stats.MeanDelay() ||
		w["completed"] != float64(len(first.Stats.Completions)) {
		t.Fatalf("first env.window reward/mean_delay/completed = %v/%v/%v, want %v/%v/%d",
			w["reward"], w["mean_delay"], w["completed"],
			first.Reward, first.Stats.MeanDelay(), len(first.Stats.Completions))
	}

	// The scale span nests under its window and carries the queue depths
	// the decision saw.
	sc := scales[0]
	if sc["parent"] != w["id"] || sc["t0"] != 0.0 || sc["t1"] != 0.0 {
		t.Fatalf("first cluster.scale parent=%v over [%v, %v], want window %v at t=0",
			sc["parent"], sc["t0"], sc["t1"], w["id"])
	}
	q, ok := sc["queues"].([]any)
	if !ok || len(q) != 2 {
		t.Fatalf("cluster.scale queues=%v, want 2 entries", sc["queues"])
	}
	if v, ok := q[0].(float64); !ok || v <= 0 {
		t.Fatalf("first scale saw queue[0]=%v, want the submitted backlog", q[0])
	}
	if tg, ok := sc["target"].([]any); !ok || len(tg) != 2 || tg[0] != 2.0 {
		t.Fatalf("cluster.scale target=%v, want [2 2]", sc["target"])
	}
	if av, ok := sc["available"].([]any); !ok || len(av) != 2 {
		t.Fatalf("cluster.scale available=%v, want 2 entries", sc["available"])
	}
}

// TestStepNilRecorder ensures an uninstrumented env behaves identically.
func TestStepNilRecorder(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 12)
	if _, err := e.Step([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{9, 9}); err == nil {
		t.Fatal("over-budget action accepted")
	}
}
