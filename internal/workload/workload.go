// Package workload generates workflow request traffic for the emulated
// microservice cluster: continuous Poisson arrival processes per workflow
// type (the paper's background load, §VI-A1) and request bursts (the
// paper's comparison scenarios, §VI-D).
package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"miras/internal/cluster"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// Burst is a batch of workflow requests injected at one instant.
type Burst struct {
	// At is the virtual time of injection.
	At sim.Time
	// Counts is the number of requests per workflow type.
	Counts []int
}

// Generator drives a cluster with Poisson background arrivals and optional
// bursts. It is bound to the cluster's engine: arrivals happen as events in
// virtual time.
type Generator struct {
	cluster *cluster.Cluster
	engine  *sim.Engine
	events  sim.HandlerID
	rng     *rand.Rand
	rates   []float64
	running bool
	stopGen uint64 // invalidates self-rescheduling arrival chains

	submitted []uint64
}

// Each workflow type's Poisson arrivals form a chain of events, each
// scheduling the next, through sim.Engine.ScheduleCall under the handler ID
// the generator registers, so an arrival stores no closure. The event's
// uint64 argument packs
//
//	bits 0–15    workflow type
//	bits 16–63   the chain's generation, stopGen when it was started
//
// Stop bumps stopGen, which turns every pending arrival of the older
// generation into a no-op that draws no RNG.
const (
	typeBits = 16
	maxTypes = 1 << typeBits
	genMask  = 1<<(64-typeBits) - 1
)

// arrivalEvents is the generator's sim.Handler: the same struct under a
// second method set, so Fire stays off the Generator API.
type arrivalEvents Generator

// Fire implements sim.Handler: one Poisson arrival, which schedules the next.
func (h *arrivalEvents) Fire(arg uint64) {
	g := (*Generator)(h)
	i, gen := int(arg&(maxTypes-1)), arg>>typeBits
	if gen != g.stopGen&genMask {
		return
	}
	g.cluster.Submit(i)
	g.submitted[i]++
	g.scheduleNext(i, gen)
}

// NewGenerator returns a generator over c with the given per-workflow-type
// Poisson rates (requests per second; zero disables that type). The
// generator is created stopped; call Start.
func NewGenerator(c *cluster.Cluster, streams *sim.Streams, engine *sim.Engine, rates []float64) (*Generator, error) {
	if len(rates) != c.Ensemble().NumWorkflows() {
		return nil, fmt.Errorf("workload: %d rates for %d workflow types",
			len(rates), c.Ensemble().NumWorkflows())
	}
	if len(rates) > maxTypes {
		return nil, fmt.Errorf("workload: %d workflow types, at most %d supported", len(rates), maxTypes)
	}
	for i, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("workload: negative rate %g for workflow %d", r, i)
		}
	}
	g := &Generator{
		cluster:   c,
		engine:    engine,
		rng:       streams.Stream("workload/arrivals"),
		rates:     append([]float64(nil), rates...),
		submitted: make([]uint64, len(rates)),
	}
	g.events = engine.Register((*arrivalEvents)(g))
	return g, nil
}

// Start begins Poisson arrivals for every workflow type with positive rate.
// Starting an already-running generator is a no-op.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	gen := g.stopGen
	for i, r := range g.rates {
		if r > 0 {
			g.scheduleNext(i, gen)
		}
	}
}

// Stop halts future arrivals. Requests already in the cluster are
// unaffected.
func (g *Generator) Stop() {
	if !g.running {
		return
	}
	g.running = false
	g.stopGen++
}

// Running reports whether arrivals are active.
func (g *Generator) Running() bool { return g.running }

// SetRates replaces the Poisson rates. If the generator is running, new
// rates take effect from each type's next arrival. Used by experiments with
// time-varying load.
func (g *Generator) SetRates(rates []float64) error {
	if len(rates) != len(g.rates) {
		return fmt.Errorf("workload: %d rates for %d workflow types", len(rates), len(g.rates))
	}
	for i, r := range rates {
		if r < 0 {
			return fmt.Errorf("workload: negative rate %g for workflow %d", r, i)
		}
	}
	// Restart arrival chains so types that were at rate 0 begin arriving.
	wasRunning := g.running
	g.Stop()
	copy(g.rates, rates)
	if wasRunning {
		g.Start()
	}
	return nil
}

// scheduleNext arranges workflow type i's next Poisson arrival in chain
// generation gen.
func (g *Generator) scheduleNext(i int, gen uint64) {
	rate := g.rates[i]
	if rate <= 0 {
		return
	}
	gap := sim.Exponential(g.rng, 1/rate)
	g.engine.ScheduleCall(gap, g.events, (gen&genMask)<<typeBits|uint64(i))
}

// InjectBurst submits counts[i] requests of each workflow type i at the
// current virtual time. A rejected burst submits nothing.
func (g *Generator) InjectBurst(counts []int) error {
	if len(counts) != len(g.rates) {
		return fmt.Errorf("workload: burst has %d counts for %d workflow types",
			len(counts), len(g.rates))
	}
	if i := slices.IndexFunc(counts, func(n int) bool { return n < 0 }); i >= 0 {
		return fmt.Errorf("workload: negative burst count %d for workflow %d", counts[i], i)
	}
	for i, n := range counts {
		for k := 0; k < n; k++ {
			g.cluster.Submit(i)
			g.submitted[i]++
		}
	}
	return nil
}

// ScheduleBursts schedules each burst at its absolute time.
func (g *Generator) ScheduleBursts(bursts []Burst) error {
	for _, b := range bursts {
		if len(b.Counts) != len(g.rates) {
			return fmt.Errorf("workload: burst at %g has %d counts for %d workflow types",
				b.At, len(b.Counts), len(g.rates))
		}
		counts := append([]int(nil), b.Counts...)
		g.engine.ScheduleAt(b.At, func() {
			// Errors are impossible here: lengths were validated above.
			_ = g.InjectBurst(counts)
		})
	}
	return nil
}

// Submitted returns cumulative submissions per workflow type.
func (g *Generator) Submitted() []uint64 {
	out := make([]uint64, len(g.submitted))
	copy(out, g.submitted)
	return out
}

// DefaultRates returns the background Poisson rates used by the paper-
// reproduction experiments for the given ensemble: a light continuous load
// (≈10% of the consumer budget) on which bursts are superimposed, matching
// §VI-D's "continuous workflow requests sampled from Poisson process".
func DefaultRates(e *workflow.Ensemble) []float64 {
	switch e.Name {
	case "msd":
		return []float64{0.10, 0.10, 0.10}
	case "ligo":
		return []float64{0.03, 0.02, 0.015, 0.015}
	case "toy":
		return []float64{0.2}
	default:
		rates := make([]float64, e.NumWorkflows())
		for i := range rates {
			rates[i] = 0.05
		}
		return rates
	}
}

// PaperBursts returns the burst scenarios from §VI-D of the paper, indexed
// 0–2, for the given ensemble.
//
//	MSD:  burst 1 = (300, 200, 300); burst 2 = (1000, 300, 400);
//	      burst 3 = (500, 500, 500) over (Type1, Type2, Type3).
//	LIGO: burst 1 = (100, 100, 50, 30); burst 2 = (150, 150, 80, 50);
//	      burst 3 = (80, 80, 80, 80) over (DataFind, CAT, Full, Injection).
func PaperBursts(ensemble string) ([][]int, error) {
	switch ensemble {
	case "msd":
		return [][]int{
			{300, 200, 300},
			{1000, 300, 400},
			{500, 500, 500},
		}, nil
	case "ligo":
		return [][]int{
			{100, 100, 50, 30},
			{150, 150, 80, 50},
			{80, 80, 80, 80},
		}, nil
	default:
		return nil, fmt.Errorf("workload: no paper bursts for ensemble %q", ensemble)
	}
}
