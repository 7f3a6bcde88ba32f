package workflow_test

import (
	"testing"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
)

// FuzzEnsembleSteps holds Validate to its promise: any service-time
// parameters it accepts are ones the emulator can draw. A two-task chain
// built from the fuzzed (mean, cv) pairs either fails Validate, or an env
// over it builds and steps one window, with a one-request burst, without
// panicking.
func FuzzEnsembleSteps(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.0)
	f.Add(1.0, 1e200, 1.0, 0.0)
	f.Add(1e-300, 1e150, 1.0, 0.0)
	f.Add(0.0, 0.0, -1.0, -1.0)

	f.Fuzz(func(t *testing.T, mean0, cv0, mean1, cv1 float64) {
		e := &workflow.Ensemble{
			Name: "fuzz",
			Tasks: []workflow.TaskDef{
				{Name: "a", MeanServiceSec: mean0, ServiceCV: cv0},
				{Name: "b", MeanServiceSec: mean1, ServiceCV: cv1},
			},
			Workflows: []*workflow.Type{
				workflow.MustType("chain", []workflow.Node{{Task: 0}, {Task: 1}}, [][]int{{1}, {}}),
			},
		}
		if e.Validate() != nil {
			return
		}
		ev, err := env.New(env.Config{Cluster: cluster.Config{Ensemble: e}, Seed: 1, Rates: []float64{0.05}, Budget: 2})
		if err != nil {
			t.Fatalf("validated ensemble builds no env: %v\ntasks: %+v", err, e.Tasks)
		}
		if err := ev.InjectBurst([]int{1}); err != nil {
			t.Fatalf("burst: %v\ntasks: %+v", err, e.Tasks)
		}
		if _, err := ev.Step([]int{1, 1}); err != nil {
			t.Fatalf("step: %v\ntasks: %+v", err, e.Tasks)
		}
	})
}
