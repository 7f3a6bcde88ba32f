package baselines

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/cluster"
	"miras/internal/sim"
	"miras/internal/workflow"
	"miras/internal/workload"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic reference: a=2 erlangs, m=2 servers → B = 0.4.
	if got := ErlangB(2, 2); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("ErlangB(2,2)=%g, want 0.4", got)
	}
	if got := ErlangB(0, 5); got != 0 {
		t.Fatalf("ErlangB(0,5)=%g", got)
	}
	if got := ErlangB(3, 0); got != 1 {
		t.Fatalf("ErlangB(3,0)=%g, want 1 (no servers block everything)", got)
	}
}

func TestErlangCKnownValues(t *testing.T) {
	if got := ErlangC(2, 3); math.Abs(got-4.0/9.0) > 1e-12 {
		t.Fatalf("ErlangC(2,3)=%g, want 4/9", got)
	}
	// M/M/1: C = ρ.
	if got := ErlangC(0.7, 1); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("ErlangC(0.7,1)=%g", got)
	}
	if ErlangC(5, 3) != 1 || ErlangC(1, 0) != 1 {
		t.Fatal("unstable/serverless cases wrong")
	}
}

// Property: Erlang-B decreases in servers and increases in load.
func TestErlangBMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64() * 10
		prev := 2.0
		for m := 0; m <= 15; m++ {
			b := ErlangB(a, m)
			if b > prev+1e-12 || b < 0 || b > 1 {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMMcFormulas(t *testing.T) {
	q := MMc{Lambda: 0.5, Mu: 1, Servers: 1}
	// M/M/1: W = 1/(μ−λ) = 2, Wq = ρ/(μ−λ) = 1, L = λW = 1.
	if got := q.Sojourn(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Sojourn=%g, want 2", got)
	}
	if got := q.WaitTime(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("WaitTime=%g, want 1", got)
	}
	if got := q.JobsInSystem(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("L=%g, want 1", got)
	}
	if got := q.Utilization(); got != 0.5 {
		t.Fatalf("rho=%g", got)
	}
	if !q.Stable() {
		t.Fatal("stable queue reported unstable")
	}
	unstable := MMc{Lambda: 2, Mu: 1, Servers: 1}
	if unstable.Stable() || !math.IsInf(unstable.JobsInSystem(), 1) {
		t.Fatal("unstable queue not flagged")
	}
	idle := MMc{Lambda: 0, Mu: 1, Servers: 2}
	if idle.WaitTime() != 0 || idle.JobsInSystem() != 0 {
		t.Fatal("idle queue should be empty")
	}
}

// Property: Little's law L = λ·W holds identically in the formulas.
func TestMMcLittleIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := MMc{
			Lambda:  rng.Float64() * 3,
			Mu:      0.3 + rng.Float64(),
			Servers: 1 + rng.Intn(8),
		}
		if !q.Stable() {
			return true
		}
		return math.Abs(q.JobsInSystem()-q.Lambda*q.Sojourn()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVisitRatesMSD(t *testing.T) {
	e := workflow.NewMSD()
	rates, err := VisitRates(e, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Extract appears once in every workflow: 0.6.
	if math.Abs(rates[workflow.MSDExtract]-0.6) > 1e-12 {
		t.Fatalf("Extract rate=%g, want 0.6", rates[workflow.MSDExtract])
	}
	// Align in all three: 0.6. Segment in Type1 and Type3: 0.4.
	if math.Abs(rates[workflow.MSDAlign]-0.6) > 1e-12 {
		t.Fatalf("Align rate=%g", rates[workflow.MSDAlign])
	}
	if math.Abs(rates[workflow.MSDSegment]-0.4) > 1e-12 {
		t.Fatalf("Segment rate=%g", rates[workflow.MSDSegment])
	}
	// Render in Type2 and Type3: 0.5.
	if math.Abs(rates[workflow.MSDRender]-0.5) > 1e-12 {
		t.Fatalf("Render rate=%g", rates[workflow.MSDRender])
	}
	if _, err := VisitRates(e, []float64{1}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := VisitRates(e, []float64{-1, 0, 0}); err == nil {
		t.Fatal("expected negativity error")
	}
}

// TestEmulatorMatchesJacksonSteadyState is the physics validation: run the
// cluster emulator at moderate load with fixed consumers for a long
// horizon and compare the measured time-averaged WIP per microservice with
// the Jackson/M-M-c prediction. The emulator's service times are
// log-normal (not exponential) and arrivals to downstream stations are
// departures (not Poisson), so we allow a generous band — the point is
// agreement in magnitude and ordering, which is what DRS relies on.
func TestEmulatorMatchesJacksonSteadyState(t *testing.T) {
	e := workflow.NewMSD()
	wfRates := []float64{0.1, 0.1, 0.1}
	consumers := []int{2, 3, 2, 2}

	engine := sim.NewEngine()
	streams := sim.NewStreams(77)
	c, err := cluster.New(cluster.Config{
		Ensemble:         e,
		Engine:           engine,
		Streams:          streams,
		StartupDelayMin:  1e-9,
		StartupDelayMax:  2e-9,
		InitialConsumers: consumers,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(c, streams, engine, wfRates)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()

	const warmup, horizon = 2000.0, 42000.0
	engine.RunUntil(warmup)
	sum := make([]float64, e.NumTasks())
	samples := 0
	for ts := warmup; ts < horizon; ts += 10 {
		engine.RunUntil(ts)
		for j, w := range c.WIP() {
			sum[j] += w
		}
		samples++
	}
	predicted, err := ExpectedWIP(e, wfRates, consumers)
	if err != nil {
		t.Fatal(err)
	}
	for j := range sum {
		measured := sum[j] / float64(samples)
		want := predicted[j]
		if want < 0.2 {
			// Tiny stations: absolute check.
			if measured > want+0.4 {
				t.Fatalf("station %d measured %g vs predicted %g", j, measured, want)
			}
			continue
		}
		if measured < want*0.5 || measured > want*2.0 {
			t.Fatalf("station %d measured WIP %.2f outside [0.5, 2]× Jackson prediction %.2f",
				j, measured, want)
		}
	}
}
