package workflow_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
)

// FuzzWorkflowJSON hammers the ensemble JSON codec — the one external input
// surface of this package (custom ensemble files, the HTTP API). Decoding
// must never panic; a successful decode must yield an internally consistent
// ensemble that round-trips to stable bytes, and that the emulator can run:
// an env over it builds and steps one window, with a burst of one request
// per workflow type, without panicking.
func FuzzWorkflowJSON(f *testing.F) {
	for _, ens := range []*workflow.Ensemble{workflow.Toy(), workflow.NewMSD(), workflow.NewLIGO()} {
		data, err := json.Marshal(ens)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["a"],"edges":[[0]]}]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":-1}],"workflows":[]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["b"],"edges":[[]]}]}`))
	f.Add([]byte(`{"name":"c","tasks":[{"name":"a","mean_service_sec":1},{"name":"b","mean_service_sec":2}],"workflows":[{"name":"w","nodes":["a","b"],"edges":[[1],[0]]}]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":1,"service_cv":1e200}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","mean_service_sec":1e-300,"service_cv":1e150}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var e workflow.Ensemble
		if err := json.Unmarshal(data, &e); err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("decoded ensemble fails validation: %v\ninput: %q", err, data)
		}
		for _, wf := range e.Workflows {
			if err := wf.CheckConsistency(); err != nil {
				t.Fatalf("decoded workflow inconsistent: %v\ninput: %q", err, data)
			}
		}
		out, err := json.Marshal(&e)
		if err != nil {
			t.Fatalf("re-encode failed: %v\ninput: %q", err, data)
		}
		var e2 workflow.Ensemble
		if err := json.Unmarshal(out, &e2); err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %q", err, out)
		}
		out2, err := json.Marshal(&e2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round-trip unstable:\nfirst:  %q\nsecond: %q", out, out2)
		}
		stepOneWindow(t, &e, data)
	})
}

// stepOneWindow builds an env over e with light background load and one
// consumer per task type, injects one request per workflow type and steps
// one window.
func stepOneWindow(t *testing.T, e *workflow.Ensemble, data []byte) {
	rates := make([]float64, e.NumWorkflows())
	burst := make([]int, e.NumWorkflows())
	for i := range rates {
		rates[i], burst[i] = 0.05, 1
	}
	action := make([]int, e.NumTasks())
	for j := range action {
		action[j] = 1
	}
	ev, err := env.New(env.Config{Cluster: cluster.Config{Ensemble: e}, Seed: 1, Rates: rates, Budget: len(action)})
	if err != nil {
		t.Fatalf("decoded ensemble builds no env: %v\ninput: %q", err, data)
	}
	if err := ev.InjectBurst(burst); err != nil {
		t.Fatalf("burst: %v\ninput: %q", err, data)
	}
	if _, err := ev.Step(action); err != nil {
		t.Fatalf("step: %v\ninput: %q", err, data)
	}
}
