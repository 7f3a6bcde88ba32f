package env

import (
	"fmt"
	"testing"

	"miras/internal/workflow"
)

// newFailureAwareEnv builds a failure-aware env over the toy ensemble.
func newFailureAwareEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	cfg := testConfig(workflow.Toy(), 4, seed)
	cfg.FailureAware = true
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func TestFailureAwareDims(t *testing.T) {
	e := newFailureAwareEnv(t, 31)
	if e.StateDim() != 4 || e.ActionDim() != 2 {
		t.Fatalf("StateDim=%d ActionDim=%d, want 4 and 2", e.StateDim(), e.ActionDim())
	}
	if !e.FailureAware() {
		t.Fatal("FailureAware() = false")
	}
	if got := len(e.State()); got != 4 {
		t.Fatalf("len(State)=%d, want 4", got)
	}
	// Plain envs keep the paper's J-wide state.
	plain := newTestEnv(t, workflow.Toy(), 4, 31)
	if plain.StateDim() != 2 || plain.ActionDim() != 2 || len(plain.State()) != 2 {
		t.Fatalf("plain env dims changed: state=%d action=%d", plain.StateDim(), plain.ActionDim())
	}
}

func TestFailureAwareStateCarriesEffectiveCapacity(t *testing.T) {
	e := newFailureAwareEnv(t, 33)
	res, err := e.Step([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.State) != 4 {
		t.Fatalf("len(State)=%d, want 4", len(res.State))
	}
	// Healthy: second half equals the consumer counts.
	if res.State[2] != 2 || res.State[3] != 2 {
		t.Fatalf("capacity half=%v, want [2 2]", res.State[2:])
	}
	// Stats stay J-wide regardless of the state width.
	if len(res.Stats.WIP) != 2 || len(res.Stats.ArrivalRate) != 2 {
		t.Fatalf("Stats widened: WIP=%d ArrivalRate=%d", len(res.Stats.WIP), len(res.Stats.ArrivalRate))
	}
	// A 2× slowdown on service 1 halves its observable capacity.
	e.Cluster().SetServiceSlowdown(1, 2)
	st := e.State()
	if st[2] != 2 || st[3] != 1 {
		t.Fatalf("capacity half under slowdown=%v, want [2 1]", st[2:])
	}
}

// TestFailureAwareRewardUnchanged pins the reward to the WIP half: two
// same-seed runs, one failure-aware and one not, must produce identical
// reward sequences for identical actions.
func TestFailureAwareRewardUnchanged(t *testing.T) {
	run := func(aware bool) string {
		cfg := testConfig(workflow.Toy(), 4, 37)
		cfg.FailureAware = aware
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Cluster()
		var rewards []float64
		for i := 0; i < 5; i++ {
			for k := 0; k < 3; k++ {
				c.Submit(0)
			}
			res, err := e.Step([]int{2, 2})
			if err != nil {
				t.Fatal(err)
			}
			rewards = append(rewards, res.Reward)
		}
		return fmt.Sprint(rewards)
	}
	if plain, aware := run(false), run(true); plain != aware {
		t.Fatalf("failure-aware flag changed rewards:\nplain: %s\naware: %s", plain, aware)
	}
}

func TestFailureAwareStateNotAliased(t *testing.T) {
	e := newFailureAwareEnv(t, 41)
	e.Cluster().Submit(0)
	res, err := e.Step([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res.State[0] = 1e9
	if res.Stats.WIP[0] == 1e9 {
		t.Fatal("State shares backing array with Stats.WIP")
	}
}
