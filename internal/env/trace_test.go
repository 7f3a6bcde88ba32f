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

func countMsg(lines []map[string]any, msg string) int {
	n := 0
	for _, m := range lines {
		if m["msg"] == msg {
			n++
		}
	}
	return n
}

// TestStepEmitsWindowEvents checks the env and cluster trace stream: every
// accepted Step produces one cluster_scale and one env_window event (plus
// consumer lifecycle events at debug), and rejected actions produce a
// constraint_violation event without advancing time.
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
	if _, err := e.Step([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{3, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{9, 9}); err == nil {
		t.Fatal("over-budget action accepted")
	}

	lines := traceLines(t, &buf)
	if got := countMsg(lines, "env_window"); got != 2 {
		t.Fatalf("env_window events = %d, want 2:\n%v", got, lines)
	}
	if got := countMsg(lines, "cluster_scale"); got != 2 {
		t.Fatalf("cluster_scale events = %d, want 2", got)
	}
	if got := countMsg(lines, "constraint_violation"); got != 1 {
		t.Fatalf("constraint_violation events = %d, want 1", got)
	}
	if countMsg(lines, "consumer_start") == 0 {
		t.Fatal("no consumer_start events despite scale-ups")
	}
	if countMsg(lines, "consumer_up") == 0 {
		t.Fatal("no consumer_up events despite windows longer than startup delay")
	}

	// Spot-check the first window event's payload.
	for _, m := range lines {
		if m["msg"] != "env_window" {
			continue
		}
		if m["window"] != 1.0 {
			t.Fatalf("first env_window has window=%v, want 1", m["window"])
		}
		if m["t"] != 30.0 {
			t.Fatalf("first env_window at t=%v, want 30", m["t"])
		}
		a, ok := m["action"].([]any)
		if !ok || len(a) != 2 || a[0] != 2.0 || a[1] != 2.0 {
			t.Fatalf("first env_window action=%v, want [2 2]", m["action"])
		}
		if _, ok := m["reward"].(float64); !ok {
			t.Fatalf("env_window reward missing: %v", m)
		}
		break
	}

	// The scale event must carry the queue depths the decision saw.
	for _, m := range lines {
		if m["msg"] != "cluster_scale" {
			continue
		}
		q, ok := m["queues"].([]any)
		if !ok || len(q) != 2 {
			t.Fatalf("cluster_scale queues=%v, want 2 entries", m["queues"])
		}
		if v, ok := q[0].(float64); !ok || v <= 0 {
			t.Fatalf("first scale saw queue[0]=%v, want the submitted backlog", q[0])
		}
		break
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
