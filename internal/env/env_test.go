package env

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/cluster"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// testConfig describes an env over ens with near-instant start-ups and no
// background load.
func testConfig(ens *workflow.Ensemble, budget int, seed int64) Config {
	return Config{
		Cluster: cluster.Config{Ensemble: ens, StartupDelayMin: 1e-9, StartupDelayMax: 2e-9},
		Seed:    seed,
		Rates:   make([]float64, ens.NumWorkflows()),
		Budget:  budget, WindowSec: 30,
	}
}

func newTestEnv(t *testing.T, ens *workflow.Ensemble, budget int, seed int64) *Env {
	t.Helper()
	e, err := New(testConfig(ens, budget, seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	newTestEnv(t, workflow.Toy(), 4, 1) // valid baseline
	for name, edit := range map[string]func(*Config){
		"no ensemble":      func(c *Config) { c.Cluster.Ensemble = nil },
		"engine filled in": func(c *Config) { c.Cluster.Engine = sim.NewEngine() },
		"wrong rate arity": func(c *Config) { c.Rates = []float64{0.1, 0.1} },
		"missing budget":   func(c *Config) { c.Budget = 0 },
		"negative window":  func(c *Config) { c.WindowSec = -1 },
	} {
		cfg := testConfig(workflow.Toy(), 4, 2)
		edit(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewRejectsUndrawableServiceTimes: each of these msd edits once built
// an env whose first Step panicked (an event scheduled at NaN, or a draw
// with a non-positive mean); New must refuse them. Extreme but drawable
// service times must step.
func TestNewRejectsUndrawableServiceTimes(t *testing.T) {
	for name, edit := range map[string]func(*workflow.TaskDef){
		"cv 1e200":  func(d *workflow.TaskDef) { d.ServiceCV = 1e200 },
		"cv NaN":    func(d *workflow.TaskDef) { d.ServiceCV = math.NaN() },
		"mean 0":    func(d *workflow.TaskDef) { d.MeanServiceSec = 0 },
		"mean -1":   func(d *workflow.TaskDef) { d.MeanServiceSec = -1 },
		"mean NaN":  func(d *workflow.TaskDef) { d.MeanServiceSec = math.NaN() },
		"mean +Inf": func(d *workflow.TaskDef) { d.MeanServiceSec = math.Inf(1) },
	} {
		ens := workflow.NewMSD()
		edit(&ens.Tasks[1])
		if _, err := New(Config{Cluster: cluster.Config{Ensemble: ens}, Seed: 1, Budget: 14}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ens := workflow.NewMSD()
	for j := range ens.Tasks {
		ens.Tasks[j].MeanServiceSec = 1e-300
		ens.Tasks[j].ServiceCV = 1e150
	}
	e, err := New(Config{Cluster: cluster.Config{Ensemble: ens}, Seed: 1, Budget: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBurst([]int{30, 30, 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestStepAdvancesOneWindow(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 3)
	before := e.Cluster().Now()
	res, err := e.Step([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cluster().Now() - before; got != 30 {
		t.Fatalf("advanced %gs, want 30", got)
	}
	if e.Window() != 1 {
		t.Fatalf("Window=%d, want 1", e.Window())
	}
	if len(res.State) != 2 {
		t.Fatalf("state dim %d, want 2", len(res.State))
	}
}

func TestRewardIsOneMinusTotalWIP(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 4)
	// Starve stage 1 and park 10 requests on it.
	for i := 0; i < 10; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range res.State {
		sum += w
	}
	if math.Abs(res.Reward-(1-sum)) > 1e-12 {
		t.Fatalf("reward %g != 1 - ΣWIP %g (Eq. 1)", res.Reward, 1-sum)
	}
	if sum != 10 {
		t.Fatalf("starved WIP total %g, want 10", sum)
	}
}

func TestStepRejectsBudgetViolation(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 5)
	if _, err := e.Step([]int{3, 2}); err == nil {
		t.Fatal("expected error for budget violation")
	}
	if e.Window() != 0 {
		t.Fatal("failed step advanced the window")
	}
	if _, err := e.Step([]int{-1, 1}); err == nil {
		t.Fatal("expected error for negative allocation")
	}
	if _, err := e.Step([]int{1}); err == nil {
		t.Fatal("expected error for wrong arity")
	}
}

func TestResetClearsWIP(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 6)
	for i := 0; i < 5; i++ {
		e.Cluster().Submit(0)
	}
	state := e.Reset()
	for _, w := range state {
		if w != 0 {
			t.Fatalf("Reset left WIP: %v", state)
		}
	}
}

func TestStatsRates(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 8, 7)
	// 6 submissions in the window: arrival rate at stage 1 = 6/30.
	for i := 0; i < 6; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.ArrivalRate[0]; math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("ArrivalRate[0]=%g, want 0.2", got)
	}
	if res.Stats.CompletionRate[0] <= 0 {
		t.Fatal("no completions measured at stage 1")
	}
	if res.Stats.ServiceMean[0] <= 0 {
		t.Fatal("service mean not populated")
	}
	if res.Stats.Utilization[0] <= 0 || res.Stats.Utilization[0] > 1.5 {
		t.Fatalf("utilization %g implausible", res.Stats.Utilization[0])
	}
	// All six toy workflows should complete within one 30s window with 4
	// consumers per stage.
	if len(res.Stats.Completions) != 6 {
		t.Fatalf("completions=%d, want 6", len(res.Stats.Completions))
	}
	if res.Stats.MeanDelay() <= 0 {
		t.Fatal("MeanDelay not positive")
	}
	byWF := res.Stats.MeanDelayByWorkflow(1)
	if byWF[0] != res.Stats.MeanDelay() {
		t.Fatal("per-workflow delay mismatch for single type")
	}
}

func TestServiceMeanFallsBackToNominal(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 8)
	res, err := e.Step([]int{2, 2}) // nothing submitted, nothing completes
	if err != nil {
		t.Fatal(err)
	}
	want := workflow.Toy().Tasks[0].MeanServiceSec
	if res.Stats.ServiceMean[0] != want {
		t.Fatalf("ServiceMean fallback=%g, want nominal %g", res.Stats.ServiceMean[0], want)
	}
}

// staticController always returns the same allocation.
type staticController struct{ m []int }

func (s staticController) Name() string            { return "static" }
func (s staticController) Decide(StepResult) []int { return s.m }
func (s staticController) Reset()                  {}

func TestRunDrivesController(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 9)
	results, err := Run(e, staticController{m: []int{2, 2}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results=%d, want 5", len(results))
	}
	if e.Window() != 5 {
		t.Fatalf("windows=%d, want 5", e.Window())
	}
}

func TestRunPropagatesControllerError(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 10)
	_, err := Run(e, staticController{m: []int{9, 9}}, 3)
	if err == nil {
		t.Fatal("expected budget error from Run")
	}
}

func TestSimplexToAllocationFloor(t *testing.T) {
	m := SimplexToAllocation([]float64{0.5, 0.3, 0.2}, 10)
	if m[0] != 5 || m[1] != 3 || m[2] != 2 {
		t.Fatalf("allocation=%v", m)
	}
	// Floor must never exceed budget even with rounding-hostile simplex.
	m = SimplexToAllocation([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 14)
	if TotalAllocation(m) > 14 {
		t.Fatalf("floor rule exceeded budget: %v", m)
	}
}

// Property: for any simplex and budget, ⌊C·a⌋ satisfies the constraint —
// the paper's §IV-D argument for the softmax+floor construction.
func TestSimplexToAllocationAlwaysWithinBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(12)
		budget := 1 + rng.Intn(100)
		a := RandomSimplex(dim, rng)
		m := SimplexToAllocation(a, budget)
		return ValidAllocation(m, budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationToSimplexRoundTrip(t *testing.T) {
	a := AllocationToSimplex([]int{5, 3, 2}, 10)
	want := []float64{0.5, 0.3, 0.2}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("simplex=%v", a)
		}
	}
}

func TestProportionalAllocationExactBudget(t *testing.T) {
	m := ProportionalAllocation([]float64{1, 1, 2}, 14)
	if TotalAllocation(m) != 14 {
		t.Fatalf("proportional total=%d, want 14", TotalAllocation(m))
	}
	if m[2] <= m[0] {
		t.Fatalf("weight-2 type got %d ≤ weight-1 type %d", m[2], m[0])
	}
}

func TestProportionalAllocationZeroWeights(t *testing.T) {
	m := ProportionalAllocation([]float64{0, 0, 0}, 9)
	if TotalAllocation(m) != 9 {
		t.Fatalf("zero-weight total=%d, want 9", TotalAllocation(m))
	}
	for _, v := range m {
		if v != 3 {
			t.Fatalf("zero-weight split=%v, want even", m)
		}
	}
}

// Property: proportional allocation spends the whole budget and never goes
// negative, for arbitrary weights.
func TestProportionalAllocationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(10)
		budget := rng.Intn(60)
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.Float64() * 10
			if rng.Float64() < 0.2 {
				w[i] = 0
			}
		}
		m := ProportionalAllocation(w, budget)
		return TotalAllocation(m) == budget && ValidAllocation(m, budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformAllocation(t *testing.T) {
	m := UniformAllocation(4, 14)
	if TotalAllocation(m) != 14 {
		t.Fatalf("uniform total=%d", TotalAllocation(m))
	}
	if m[0] != 4 || m[3] != 3 {
		t.Fatalf("uniform=%v, want remainder to low indices", m)
	}
}

func TestClampToBudget(t *testing.T) {
	m := ClampToBudget([]int{10, 10, 10}, 15)
	if TotalAllocation(m) != 15 {
		t.Fatalf("clamped total=%d, want 15", TotalAllocation(m))
	}
	// In-budget passes through unchanged.
	orig := []int{1, 2, 3}
	if got := ClampToBudget(orig, 10); &got[0] != &orig[0] {
		t.Fatal("in-budget allocation should be returned as-is")
	}
}

func TestRandomSimplexIsSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := RandomSimplex(5, rng)
		var sum float64
		for _, v := range a {
			if v < 0 {
				t.Fatalf("negative simplex entry: %v", a)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("simplex sums to %g", sum)
		}
	}
}

func TestUtilizationCanExceedOneAfterScaleDown(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 8, 30)
	// Saturate stage 1 with 4 consumers, then scale to 1 mid-flight: the
	// 4 running tasks keep a single-consumer pool "over-utilised".
	if _, err := e.Step([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Utilization[0] <= 0 {
		t.Fatal("utilization should be positive under load")
	}
}

// TestStepAllocs pins the steady-state allocation cost of one msd window
// under its background load: the op log's copy of the action, the WIP
// vector, the consumer counts, one array for the four rate vectors and the
// window's completions. Counters are filled in place, so the cost does not
// grow with the ensemble's size. Every StepResult stays its caller's: a
// later window leaves an earlier one's values alone.
func TestStepAllocs(t *testing.T) {
	ens := workflow.NewMSD()
	e, err := New(Config{Cluster: cluster.Config{Ensemble: ens}, Seed: 3, Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	m := []int{5, 5, 5, 5}
	for k := 0; k < 50; k++ {
		if _, err := e.Step(m); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := e.Step(m)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(kept)
	completed := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := e.Step(m)
		if err != nil {
			t.Fatal(err)
		}
		completed += len(res.Stats.Completions)
	})
	if completed == 0 {
		t.Fatal("no workflow completed; the windows must carry load")
	}
	if got := fmt.Sprint(kept); got != want {
		t.Fatalf("a later window changed an earlier result:\n got %s\nwant %s", got, want)
	}
	if allocs > 5 {
		t.Fatalf("Step: %g allocs per window, want ≤ 5", allocs)
	}
}
