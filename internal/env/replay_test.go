package env

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"miras/internal/cluster"
	"miras/internal/faults"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// newLoggedEnv builds a failure-aware toy env with Poisson background load.
func newLoggedEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	e, err := New(Config{
		Cluster:      cluster.Config{Ensemble: workflow.Toy(), StartupDelayMin: 1, StartupDelayMax: 3},
		Seed:         seed,
		Rates:        []float64{0.3},
		Budget:       6,
		WindowSec:    10,
		FailureAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// envView is everything observable about an env that replay must reproduce.
type envView struct {
	State        []float64
	Window       int
	Now          sim.Time
	Counters     cluster.Counters
	Submitted    uint64
	Completed    uint64
	InFlight     int
	Dropped      uint64
	Abandoned    uint64
	FaultSpecs   int
	ActiveFaults []faults.ActiveFault
	Ops          []Op
}

func viewOf(e *Env) envView {
	c := e.Cluster()
	return envView{
		State:        e.State(),
		Window:       e.Window(),
		Now:          c.Now(),
		Counters:     c.Snapshot(),
		Submitted:    c.Submitted(),
		Completed:    c.CompletedInstances(),
		InFlight:     c.InFlight(),
		Dropped:      c.Dropped(),
		Abandoned:    c.Abandoned(),
		FaultSpecs:   c.FaultSpecs(),
		ActiveFaults: c.ActiveFaults(),
		Ops:          e.Ops(),
	}
}

// TestReplayRoundTrip drives an env through a seeded random sequence of all
// four op kinds — plus rejected ops, which must not be recorded — and
// replays its log onto a fresh env: state, window, cluster counters and the
// re-recorded log must all be equal, and the two envs must keep stepping
// identically afterwards.
func TestReplayRoundTrip(t *testing.T) {
	const seed = 17
	rng := rand.New(rand.NewSource(seed))
	live := newLoggedEnv(t, seed)
	kinds := map[string]int{}
	for i := 0; i < 80; i++ {
		switch k := rng.Intn(10); {
		case k < 5:
			a := rng.Intn(live.Budget() + 1)
			alloc := []int{a, rng.Intn(live.Budget() - a + 1)}
			if _, err := live.Step(alloc); err != nil {
				t.Fatal(err)
			}
			alloc[0] = -1 // the log holds a copy
		case k < 6:
			live.Reset()
		case k < 8:
			if err := live.InjectBurst([]int{rng.Intn(30)}); err != nil {
				t.Fatal(err)
			}
		case k < 9:
			plan := faults.Plan{Specs: []faults.Spec{
				{Kind: faults.Slowdown, Service: rng.Intn(2), StartSec: 5, DurationSec: 40, Factor: 1 + rng.Float64()},
				{Kind: faults.QueueDrop, Service: rng.Intn(2), DurationSec: 20, Factor: 0.3},
				{Kind: faults.Crash, Service: 1, MTTFSec: 50, MTTRSec: 5},
			}}
			if err := live.ScheduleFaults(plan); err != nil {
				t.Fatal(err)
			}
			plan.Specs[0].Factor = 99 // the log holds a copy
		default:
			// Rejected ops change nothing and are not recorded.
			n := len(live.Ops())
			if _, err := live.Step([]int{live.Budget(), 1}); err == nil {
				t.Fatal("over-budget step accepted")
			}
			if err := live.InjectBurst([]int{5, 5}); err == nil {
				t.Fatal("wrong-arity burst accepted")
			}
			if err := live.ScheduleFaults(faults.Plan{Specs: []faults.Spec{{Kind: "meteor"}}}); err == nil {
				t.Fatal("invalid fault plan accepted")
			}
			if len(live.Ops()) != n {
				t.Fatalf("rejected ops were recorded: %d → %d", n, len(live.Ops()))
			}
		}
	}
	for _, op := range live.Ops() {
		kinds[op.Kind]++
	}
	for _, k := range []string{opStep, opReset, opBurst, opFaults} {
		if kinds[k] == 0 {
			t.Fatalf("seeded sequence never recorded a %q op: %v", k, kinds)
		}
	}

	// Round-trip the log through JSON, as checkpoints and snapshots do.
	raw, err := json.Marshal(live.Ops())
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	if err := json.Unmarshal(raw, &ops); err != nil {
		t.Fatal(err)
	}
	replayed := newLoggedEnv(t, seed)
	if err := replayed.Replay(ops); err != nil {
		t.Fatal(err)
	}
	if got, want := viewOf(replayed), viewOf(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed env differs:\nlive:     %+v\nreplayed: %+v", want, got)
	}
	again, err := json.Marshal(replayed.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Fatalf("re-recorded log differs:\nlive:     %s\nreplayed: %s", raw, again)
	}
	for k := 0; k < 5; k++ {
		a, errA := live.Step([]int{3, 3})
		b, errB := replayed.Step([]int{3, 3})
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("window %d after replay diverged:\nlive:     %+v\nreplayed: %+v", k, a, b)
		}
	}
}

func TestReplayRefusesNonFreshEnv(t *testing.T) {
	e := newLoggedEnv(t, 3)
	e.Reset()
	err := e.Replay([]Op{{Kind: opReset}})
	if err == nil || !strings.Contains(err.Error(), "already recorded") {
		t.Fatalf("replay onto a used env: err=%v", err)
	}
	if len(e.Ops()) != 1 {
		t.Fatalf("refused replay changed the log: %d ops", len(e.Ops()))
	}
}

func TestReplayNamesFailingOp(t *testing.T) {
	// Failing ops, then malformed ones: a replay that accepted a field of
	// another kind could not re-record the log it was given.
	for _, bad := range []Op{
		{Kind: "zz"},
		{Kind: opStep, Alloc: []int{9, 9}},
		{Kind: opBurst, Counts: []int{-1}},
		{Kind: opFaults},
		{Kind: opReset, Alloc: []int{}},
		{Kind: opStep, Alloc: []int{1, 1}, Counts: []int{1}},
		{Kind: opBurst, Counts: []int{1}, Plan: &faults.Plan{}},
	} {
		err := newLoggedEnv(t, 4).Replay([]Op{{Kind: opReset}, bad})
		if want := fmt.Sprintf("op 1 (%q)", bad.Kind); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("replay of %+v: err=%v, want it to name %s", bad, err, want)
		}
	}
}

// TestInjectBurstBounded pins the burst bound: a burst of more than maxBurst
// requests in total is rejected however its entries would sum (a wrapping
// sum included) and leaves no trace, while one of exactly maxBurst goes in.
func TestInjectBurstBounded(t *testing.T) {
	e := newTestEnv(t, workflow.NewMSD(), 14, 5)
	for _, counts := range [][]int{
		{maxBurst + 1, 0, 0},
		{maxBurst / 2, maxBurst / 2, 1},
		{2_000_000_000, 0, 0},
		{math.MaxInt, math.MaxInt, 2}, // sums to 0 in int arithmetic
		{-1, maxBurst, 0},
	} {
		if err := e.InjectBurst(counts); err == nil {
			t.Errorf("burst %v accepted", counts)
		}
	}
	if len(e.Ops()) != 0 || e.Cluster().InFlight() != 0 {
		t.Fatalf("rejected bursts left %d ops and %d requests in flight", len(e.Ops()), e.Cluster().InFlight())
	}
	if err := e.InjectBurst([]int{maxBurst - 2, 1, 1}); err != nil {
		t.Fatalf("burst of exactly %d rejected: %v", maxBurst, err)
	}
	if len(e.Ops()) != 1 || e.Cluster().InFlight() != maxBurst {
		t.Fatalf("accepted burst left %d ops and %d requests in flight", len(e.Ops()), e.Cluster().InFlight())
	}
}
