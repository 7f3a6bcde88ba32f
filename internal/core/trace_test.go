package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"miras/internal/env"
	"miras/internal/obs"
)

// newTracedToyEnv is newToyEnv with a tracer, which env.New threads into the
// cluster and env layers.
func newTracedToyEnv(t *testing.T, seed int64, tracer *obs.Tracer) *env.Env {
	t.Helper()
	cfg := toyEnvConfig(seed)
	cfg.Tracer = tracer
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTrainEmitsTelemetry runs a tiny Algorithm 2 loop with a tracer over a
// debug recorder attached and checks the full event chain arrives:
// per-iteration info events, per-epoch model events, and per-minibatch DDPG
// events.
func TestTrainEmitsTelemetry(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf, slog.LevelDebug), SimTime: true})

	e := newTracedToyEnv(t, 9, tracer)
	cfg := tinyConfig(e, 9)
	cfg.Tracer = tracer
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != cfg.Iterations {
		t.Fatalf("got %d iterations, want %d", len(stats), cfg.Iterations)
	}

	counts := map[string]int{}
	var iterations []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		msg, _ := m["msg"].(string)
		counts[msg]++
		if msg == "iteration" {
			iterations = append(iterations, m)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if counts["iteration"] != cfg.Iterations {
		t.Fatalf("iteration events = %d, want %d (all: %v)",
			counts["iteration"], cfg.Iterations, counts)
	}
	// Every iteration fits the model for ModelEpochs epochs.
	if want := cfg.Iterations * cfg.ModelEpochs; counts["model_epoch"] != want {
		t.Fatalf("model_epoch events = %d, want %d", counts["model_epoch"], want)
	}
	if counts["ddpg_update"] == 0 {
		t.Fatal("no ddpg_update events despite policy optimisation running")
	}
	// Real-environment interaction must be visible as window events.
	if counts["env_window"] == 0 {
		t.Fatal("no env_window events despite real collection and evaluation")
	}

	// Iteration events mirror the returned IterationStats.
	for i, m := range iterations {
		if int(m["iteration"].(float64)) != stats[i].Iteration {
			t.Fatalf("event %d iteration=%v, stats say %d", i, m["iteration"], stats[i].Iteration)
		}
		if int(m["dataset"].(float64)) != stats[i].DatasetSize {
			t.Fatalf("event %d dataset=%v, stats say %d", i, m["dataset"], stats[i].DatasetSize)
		}
		if m["eval_return"].(float64) != stats[i].EvalReturn {
			t.Fatalf("event %d eval_return=%v, stats say %g", i, m["eval_return"], stats[i].EvalReturn)
		}
	}
}
