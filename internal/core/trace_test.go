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
// debug recorder attached and checks the full span chain arrives: one
// train.iteration span per iteration carrying its Fig. 6 row, one model.fit
// span per fit carrying its per-epoch losses, per-minibatch ddpg.update
// spans, and env.window spans for the real-environment interaction.
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
	var iterations, fits, updates []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if m["msg"] != "span" {
			t.Fatalf("non-span record in the trace: %v", m)
		}
		name, _ := m["name"].(string)
		counts[name]++
		switch name {
		case "train.iteration":
			iterations = append(iterations, m)
		case "model.fit":
			fits = append(fits, m)
		case "ddpg.update":
			updates = append(updates, m)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(iterations) != cfg.Iterations {
		t.Fatalf("train.iteration spans = %d, want %d (all: %v)", len(iterations), cfg.Iterations, counts)
	}
	// Every iteration fits the model once, for ModelEpochs epochs, and the
	// fit span carries one loss per epoch.
	if len(fits) != cfg.Iterations {
		t.Fatalf("model.fit spans = %d, want %d", len(fits), cfg.Iterations)
	}
	epochs := 0
	for _, f := range fits {
		losses, ok := f["losses"].([]any)
		if !ok || len(losses) != cfg.ModelEpochs || f["epochs"] != float64(cfg.ModelEpochs) {
			t.Fatalf("model.fit losses=%v epochs=%v, want %d of each", f["losses"], f["epochs"], cfg.ModelEpochs)
		}
		if losses[len(losses)-1] != f["final_loss"] {
			t.Fatalf("model.fit last loss %v != final_loss %v", losses[len(losses)-1], f["final_loss"])
		}
		if _, tagged := f["model"]; tagged {
			t.Fatalf("model.fit still carries a model tag: %v", f)
		}
		epochs += len(losses)
	}
	if want := cfg.Iterations * cfg.ModelEpochs; epochs != want {
		t.Fatalf("model epochs traced = %d, want %d", epochs, want)
	}
	if len(updates) == 0 {
		t.Fatal("no ddpg.update spans despite policy optimisation running")
	}
	for _, k := range []string{"update", "critic_loss", "mean_q", "replay", "sigma"} {
		if _, ok := updates[0][k]; !ok {
			t.Fatalf("ddpg.update lacks %s: %v", k, updates[0])
		}
	}
	// Real-environment interaction must be visible as window spans.
	if counts["env.window"] == 0 {
		t.Fatal("no env.window spans despite real collection and evaluation")
	}

	// Iteration spans mirror the returned IterationStats.
	for i, m := range iterations {
		st := stats[i]
		for _, f := range []struct {
			key  string
			want float64
		}{
			{"iteration", float64(st.Iteration)},
			{"dataset", float64(st.DatasetSize)},
			{"model_loss", st.ModelLoss},
			{"policy_episodes", float64(st.PolicyEpisodes)},
			{"synthetic_return", st.SyntheticReturn},
			{"eval_return", st.EvalReturn},
			{"noise_sigma", st.NoiseSigma},
		} {
			if m[f.key] != f.want {
				t.Fatalf("iteration span %d %s=%v, stats say %g", i, f.key, m[f.key], f.want)
			}
		}
		if m["rolled_back"] != st.RolledBack {
			t.Fatalf("iteration span %d rolled_back=%v, stats say %v", i, m["rolled_back"], st.RolledBack)
		}
		if n, ok := m["ddpg_updates"].(float64); !ok || n <= 0 {
			t.Fatalf("iteration span %d ddpg_updates=%v, want the updates so far", i, m["ddpg_updates"])
		}
	}
	if last := iterations[len(iterations)-1]["ddpg_updates"]; last != float64(a.ddpg.Updates()) {
		t.Fatalf("last iteration ddpg_updates=%v, agent made %d", last, a.ddpg.Updates())
	}
}
