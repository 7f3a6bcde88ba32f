package baselines

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/rl"
	"miras/internal/workflow"
)

func statsResult(wip, arrivalRate, serviceMean []float64) env.StepResult {
	return env.StepResult{
		State: wip,
		Stats: env.Stats{
			WIP:         wip,
			ArrivalRate: arrivalRate,
			ServiceMean: serviceMean,
		},
	}
}

func TestDRSRespectsBudgetAndTargetsLoad(t *testing.T) {
	d := NewDRS(10, 30)
	d.Reset()
	prev := statsResult(
		[]float64{40, 2, 0},      // heavy backlog at service 0
		[]float64{0.5, 0.05, 0},  // most arrivals at service 0
		[]float64{2.0, 2.0, 2.0}, // equal service times
	)
	var m []int
	for i := 0; i < 5; i++ { // let the EWMA warm up
		m = d.Decide(prev)
	}
	if !env.ValidAllocation(m, 10) {
		t.Fatalf("DRS violated budget: %v", m)
	}
	if m[0] <= m[1] {
		t.Fatalf("DRS gave loaded service %d ≤ light service %d: %v", m[0], m[1], m)
	}
	if m[2] != 0 {
		t.Fatalf("DRS allocated %d to idle service", m[2])
	}
}

func TestDRSHandlesMissingStats(t *testing.T) {
	d := NewDRS(6, 30)
	prev := env.StepResult{State: []float64{1, 2}, Stats: env.Stats{WIP: []float64{1, 2}}}
	m := d.Decide(prev)
	if !env.ValidAllocation(m, 6) {
		t.Fatalf("DRS with missing stats violated budget: %v", m)
	}
}

// Property: DRS never violates the budget for arbitrary observations.
func TestDRSBudgetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := 1 + rng.Intn(9)
		budget := 1 + rng.Intn(30)
		d := NewDRS(budget, 30)
		for trial := 0; trial < 5; trial++ {
			wip := make([]float64, j)
			arr := make([]float64, j)
			svc := make([]float64, j)
			for i := range wip {
				wip[i] = rng.Float64() * 100
				arr[i] = rng.Float64()
				svc[i] = 0.5 + rng.Float64()*5
			}
			if !env.ValidAllocation(d.Decide(statsResult(wip, arr, svc)), budget) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpwardRanksPipeline(t *testing.T) {
	// Toy pipeline Stage1(2s) → Stage2(2s): rank(Stage1)=4, rank(Stage2)=2.
	ranks := UpwardRanks(workflow.Toy())
	if math.Abs(ranks[0]-4) > 1e-9 || math.Abs(ranks[1]-2) > 1e-9 {
		t.Fatalf("ranks=%v, want [4 2]", ranks)
	}
}

func TestUpwardRanksLIGOEntryHighest(t *testing.T) {
	e := workflow.NewLIGO()
	ranks := UpwardRanks(e)
	// DataFind starts the longest chain (Full workflow), so its rank must
	// exceed the terminal Coire's.
	if ranks[workflow.LIGODataFind] <= ranks[workflow.LIGOCoire] {
		t.Fatalf("DataFind rank %g ≤ Coire rank %g", ranks[workflow.LIGODataFind], ranks[workflow.LIGOCoire])
	}
}

func TestHEFTRespectsBudgetAndPrioritisesUpstream(t *testing.T) {
	e := workflow.NewMSD()
	h := NewHEFT(e, 14)
	h.Reset()
	// Equal backlog everywhere: upstream (higher-rank) tasks get more.
	prev := statsResult(
		[]float64{10, 10, 10, 10},
		[]float64{0, 0, 0, 0},
		nil,
	)
	m := h.Decide(prev)
	if !env.ValidAllocation(m, 14) {
		t.Fatalf("HEFT violated budget: %v", m)
	}
	if m[workflow.MSDExtract] <= m[workflow.MSDRender] {
		t.Fatalf("HEFT should favour high-rank Extract over terminal Render: %v", m)
	}
}

func TestMONADDrainsPredictedWork(t *testing.T) {
	mo := NewMONAD(10, 30)
	mo.Reset()
	prev := statsResult(
		[]float64{30, 0, 5},
		[]float64{0.2, 0, 0},
		[]float64{3, 3, 3},
	)
	m := mo.Decide(prev)
	if !env.ValidAllocation(m, 10) {
		t.Fatalf("MONAD violated budget: %v", m)
	}
	if m[0] <= m[2] {
		t.Fatalf("MONAD should weight the 36-unit queue over the 5-unit one: %v", m)
	}
	if m[1] != 0 {
		t.Fatalf("MONAD allocated %d to idle service", m[1])
	}
}

func TestMONADIdlesSurplusBudget(t *testing.T) {
	mo := NewMONAD(20, 30)
	// One task unit total: one consumer covers it; the rest idle.
	prev := statsResult([]float64{1, 0}, []float64{0, 0}, []float64{2, 2})
	m := mo.Decide(prev)
	if env.TotalAllocation(m) != 1 {
		t.Fatalf("MONAD should allocate exactly 1 consumer for 1 task: %v", m)
	}
}

// Property: MONAD and HEFT always respect the budget.
func TestControllersBudgetProperty(t *testing.T) {
	e := workflow.NewLIGO()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 1 + rng.Intn(40)
		ctrls := []env.Controller{
			NewMONAD(budget, 30),
			NewHEFT(e, budget),
			NewStatic(9, budget),
		}
		wip := make([]float64, 9)
		arr := make([]float64, 9)
		svc := make([]float64, 9)
		for i := range wip {
			wip[i] = rng.Float64() * 200
			arr[i] = rng.Float64() * 2
			svc[i] = 0.5 + rng.Float64()*8
		}
		prev := statsResult(wip, arr, svc)
		for _, c := range ctrls {
			if !env.ValidAllocation(c.Decide(prev), budget) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticAllocation(t *testing.T) {
	s := NewStatic(4, 14)
	if s.Name() != "static" {
		t.Fatal("name wrong")
	}
	m := s.Decide(env.StepResult{})
	if env.TotalAllocation(m) != 14 {
		t.Fatalf("static total=%d", env.TotalAllocation(m))
	}
}

func TestTrainModelFree(t *testing.T) {
	e, err := env.New(env.Config{
		Cluster: cluster.Config{Ensemble: workflow.Toy(), StartupDelayMin: 1, StartupDelayMax: 2},
		Seed:    31,
		Rates:   []float64{0},
		Budget:  6, WindowSec: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := TrainModelFree(e, rl.Config{
		Hidden: []int{12, 12}, BatchSize: 8, Seed: 32,
	}, 40, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Name() != "rl" {
		t.Fatal("name wrong")
	}
	if mf.Agent().ReplayLen() != 40 {
		t.Fatalf("replay=%d, want 40 real interactions", mf.Agent().ReplayLen())
	}
	m := mf.Decide(env.StepResult{State: []float64{3, 4}})
	if !env.ValidAllocation(m, 6) {
		t.Fatalf("model-free baseline violated budget: %v", m)
	}
}

func TestTrainModelFreeValidation(t *testing.T) {
	if _, err := TrainModelFree(nil, rl.Config{}, 0, 5, nil); err == nil {
		t.Fatal("expected error for zero steps")
	}
}

func TestHPARespectsBudgetAndReactsToLoad(t *testing.T) {
	h := NewHPA(12)
	h.Reset()
	// Service 0 saturated with backlog, service 1 idle: repeated decisions
	// shift budget toward service 0.
	prev := env.StepResult{
		State: []float64{40, 0, 0},
		Stats: env.Stats{
			WIP:         []float64{40, 0, 0},
			Utilization: []float64{1.0, 0.05, 0.05},
		},
	}
	var m []int
	for i := 0; i < 6; i++ {
		m = h.Decide(prev)
		if !env.ValidAllocation(m, 12) {
			t.Fatalf("HPA violated budget: %v", m)
		}
	}
	if m[0] <= m[1] {
		t.Fatalf("HPA did not shift budget to the loaded service: %v", m)
	}
}

func TestHPAScaleDownWhenIdle(t *testing.T) {
	h := NewHPA(12)
	idle := env.StepResult{
		State: []float64{0, 0, 0},
		Stats: env.Stats{
			WIP:         []float64{0, 0, 0},
			Utilization: []float64{0.0, 0.0, 0.0},
		},
	}
	first := h.Decide(idle)
	var m []int
	for i := 0; i < 5; i++ {
		m = h.Decide(idle)
	}
	if env.TotalAllocation(m) >= env.TotalAllocation(first) {
		t.Fatalf("HPA did not scale down when idle: %v -> %v", first, m)
	}
}

func TestHPABudgetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 1 + rng.Intn(30)
		h := NewHPA(budget)
		for step := 0; step < 8; step++ {
			j := 5
			wip := make([]float64, j)
			util := make([]float64, j)
			for i := range wip {
				wip[i] = rng.Float64() * 100
				util[i] = rng.Float64() * 1.2
			}
			prev := env.StepResult{State: wip, Stats: env.Stats{WIP: wip, Utilization: util}}
			if !env.ValidAllocation(h.Decide(prev), budget) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
