package workload

import (
	"math"
	"testing"

	"miras/internal/cluster"
	"miras/internal/sim"
	"miras/internal/workflow"
)

func newHarness(t *testing.T, e *workflow.Ensemble, seed int64) (*cluster.Cluster, *sim.Engine, *sim.Streams) {
	t.Helper()
	engine := sim.NewEngine()
	streams := sim.NewStreams(seed)
	c, err := cluster.New(cluster.Config{
		Ensemble:        e,
		Engine:          engine,
		Streams:         streams,
		StartupDelayMin: 1e-9,
		StartupDelayMax: 2e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, engine, streams
}

func TestNewGeneratorValidation(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 1)
	if _, err := NewGenerator(c, streams, engine, []float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong rate count")
	}
	if _, err := NewGenerator(c, streams, engine, []float64{-1}); err == nil {
		t.Fatal("expected error for negative rate")
	}
}

// TestArrivalsZeroAlloc pins the steady-state Poisson arrival: it fires
// through the generator's registered handler with no closure, and its Submit
// carves from chunks, so 1 000 arrivals into a warm cluster average under one
// allocation each. A closure per arrival, plus Submit's instance and
// countdown, made three.
func TestArrivalsZeroAlloc(t *testing.T) {
	engine := sim.NewEngine()
	streams := sim.NewStreams(9)
	// No consumers: arrivals are the only events, and every task waits in
	// its queue.
	c, err := cluster.New(cluster.Config{Ensemble: workflow.NewMSD(), Engine: engine,
		Streams: streams, InitialConsumers: make([]int, 4)})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(c, streams, engine, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	for i := 0; i < 3000; i++ {
		engine.Step()
	}
	c.Clear() // empties the queues and keeps their rings
	before := c.Submitted()
	if got := testing.AllocsPerRun(1000, func() { engine.Step() }); got != 0 {
		t.Fatalf("arrival: %g allocs/op, want 0", got)
	}
	// AllocsPerRun makes one extra, unmeasured run.
	if n := c.Submitted() - before; n != 1001 {
		t.Fatalf("%d arrivals in 1001 steps", n)
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 2)
	g, err := NewGenerator(c, streams, engine, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	const horizon = 4000.0
	engine.RunUntil(horizon)
	got := float64(g.Submitted()[0])
	want := 0.5 * horizon
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("submitted %g requests over %gs at rate 0.5, want about %g", got, horizon, want)
	}
}

func TestZeroRateProducesNoArrivals(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.NewMSD(), 3)
	g, err := NewGenerator(c, streams, engine, []float64{0, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(500)
	sub := g.Submitted()
	if sub[0] != 0 || sub[2] != 0 {
		t.Fatalf("zero-rate types received arrivals: %v", sub)
	}
	if sub[1] == 0 {
		t.Fatal("positive-rate type received no arrivals")
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 4)
	g, err := NewGenerator(c, streams, engine, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(100)
	g.Stop()
	before := g.Submitted()[0]
	engine.RunUntil(500)
	if got := g.Submitted()[0]; got != before {
		t.Fatalf("arrivals continued after Stop: %d → %d", before, got)
	}
	if g.Running() {
		t.Fatal("Running() true after Stop")
	}
}

// TestRestartDropsStaleChains: each Stop leaves its chains' next arrivals
// pending in the engine, and a Start at the same instant begins new chains;
// the stale arrivals must fire as no-ops, or the rates would multiply. Each
// type's arrivals must also reach that type.
func TestRestartDropsStaleChains(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.NewMSD(), 6)
	rates := []float64{1, 0, 2}
	g, err := NewGenerator(c, streams, engine, rates)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(10)
	for k := 0; k < 3; k++ {
		g.Stop()
		g.Start()
	}
	before := g.Submitted()
	engine.RunUntil(2010)
	after := g.Submitted()
	for i, r := range rates {
		got, want := float64(after[i]-before[i]), r*2000
		if math.Abs(got-want) > 0.1*want+0.5 {
			t.Errorf("type %d: %g arrivals in 2000s at rate %g", i, got, r)
		}
	}
}

// TestNewGeneratorRefusesTypesBeyondPacking: an arrival event packs its
// workflow type in 16 bits, so a 65 537th type is refused.
func TestNewGeneratorRefusesTypesBeyondPacking(t *testing.T) {
	wf := workflow.MustType("w", []workflow.Node{{Task: 0}}, [][]int{{}})
	ens := &workflow.Ensemble{Name: "wide", Tasks: []workflow.TaskDef{{Name: "a", MeanServiceSec: 1}}}
	for i := 0; i <= maxTypes; i++ {
		ens.Workflows = append(ens.Workflows, wf)
	}
	c, engine, streams := newHarness(t, ens, 7)
	if _, err := NewGenerator(c, streams, engine, make([]float64, maxTypes+1)); err == nil {
		t.Fatal("accepted more workflow types than an arrival event can name")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 5)
	g, err := NewGenerator(c, streams, engine, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	g.Stop() // stop before start: no-op
	g.Start()
	g.Start() // double start must not double the rate
	engine.RunUntil(2000)
	got := float64(g.Submitted()[0])
	if math.Abs(got-2000)/2000 > 0.1 {
		t.Fatalf("double Start changed arrival rate: %g arrivals in 2000s at rate 1", got)
	}
}

func TestSetRatesTakesEffect(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 6)
	g, err := NewGenerator(c, streams, engine, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(100)
	if g.Submitted()[0] != 0 {
		t.Fatal("rate-0 generator submitted requests")
	}
	if err := g.SetRates([]float64{1}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(1100)
	got := float64(g.Submitted()[0])
	if math.Abs(got-1000)/1000 > 0.15 {
		t.Fatalf("after SetRates(1): %g arrivals in 1000s", got)
	}
	if err := g.SetRates([]float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong rate count")
	}
	if err := g.SetRates([]float64{-1}); err == nil {
		t.Fatal("expected error for negative rate")
	}
}

func TestInjectBurst(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.NewMSD(), 7)
	g, err := NewGenerator(c, streams, engine, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InjectBurst([]int{300, 200, 300}); err != nil {
		t.Fatal(err)
	}
	if c.InFlight() != 800 {
		t.Fatalf("InFlight=%d after burst, want 800", c.InFlight())
	}
	if err := g.InjectBurst([]int{1, 2}); err == nil {
		t.Fatal("expected error for wrong count length")
	}
	if err := g.InjectBurst([]int{-1, 0, 0}); err == nil {
		t.Fatal("expected error for negative count")
	}
	// A rejected burst submits nothing, even for the counts before the bad one.
	if err := g.InjectBurst([]int{500, -1, 0}); err == nil {
		t.Fatal("expected error for negative count")
	}
	if c.InFlight() != 800 {
		t.Fatalf("InFlight=%d after a rejected burst, want 800", c.InFlight())
	}
	engine.RunUntil(1) // burst shouldn't crash dispatch
}

func TestScheduleBursts(t *testing.T) {
	c, engine, streams := newHarness(t, workflow.Toy(), 8)
	g, err := NewGenerator(c, streams, engine, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ScheduleBursts([]Burst{
		{At: 10, Counts: []int{5}},
		{At: 20, Counts: []int{7}},
	}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(9)
	if got := g.Submitted()[0]; got != 0 {
		t.Fatalf("burst fired early: %d", got)
	}
	engine.RunUntil(15)
	if got := g.Submitted()[0]; got != 5 {
		t.Fatalf("after first burst: %d, want 5", got)
	}
	engine.RunUntil(25)
	if got := g.Submitted()[0]; got != 12 {
		t.Fatalf("after second burst: %d, want 12", got)
	}
	if err := g.ScheduleBursts([]Burst{{At: 30, Counts: []int{1, 2}}}); err == nil {
		t.Fatal("expected error for wrong burst width")
	}
}

func TestDefaultRatesShapes(t *testing.T) {
	for _, name := range []string{"msd", "ligo", "toy"} {
		e, _ := workflow.ByName(name)
		rates := DefaultRates(e)
		if len(rates) != e.NumWorkflows() {
			t.Fatalf("%s: %d rates for %d workflows", name, len(rates), e.NumWorkflows())
		}
		for _, r := range rates {
			if r <= 0 {
				t.Fatalf("%s: non-positive default rate", name)
			}
		}
	}
	// Unknown ensembles get a uniform fallback.
	custom := &workflow.Ensemble{
		Name:      "custom",
		Tasks:     []workflow.TaskDef{{Name: "t"}},
		Workflows: []*workflow.Type{workflow.MustType("w", []workflow.Node{{Task: 0}}, [][]int{{}})},
	}
	if got := DefaultRates(custom); len(got) != 1 || got[0] <= 0 {
		t.Fatalf("fallback rates wrong: %v", got)
	}
}

func TestPaperBurstsMatchPaper(t *testing.T) {
	msd, err := PaperBursts("msd")
	if err != nil {
		t.Fatal(err)
	}
	// §VI-D: 300/200/300, 1000/300/400, 500/500/500.
	want := [][]int{{300, 200, 300}, {1000, 300, 400}, {500, 500, 500}}
	for i := range want {
		for j := range want[i] {
			if msd[i][j] != want[i][j] {
				t.Fatalf("MSD burst %d = %v, want %v", i, msd[i], want[i])
			}
		}
	}
	ligo, err := PaperBursts("ligo")
	if err != nil {
		t.Fatal(err)
	}
	wantL := [][]int{{100, 100, 50, 30}, {150, 150, 80, 50}, {80, 80, 80, 80}}
	for i := range wantL {
		for j := range wantL[i] {
			if ligo[i][j] != wantL[i][j] {
				t.Fatalf("LIGO burst %d = %v, want %v", i, ligo[i], wantL[i])
			}
		}
	}
	if _, err := PaperBursts("nope"); err == nil {
		t.Fatal("expected error for unknown ensemble")
	}
}
