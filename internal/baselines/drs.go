package baselines

import (
	"math"

	"miras/internal/env"
)

// DRS is the Jackson-network allocator ("stream" in Figs. 7–8). Each
// microservice is modelled as an M/M/m queue; per window it estimates each
// queue's arrival rate λ_j (smoothed, plus a backlog-drain term so queued
// work counts as offered load) and service rate μ_j, then distributes the
// consumer budget greedily: each unit of budget goes to the microservice
// whose expected total sojourn time λ_j·W_j(m_j) decreases the most.
//
// As the paper observes, DRS was designed for steady-stream workloads: the
// smoothed rate estimates make it slow to react to bursts, and the
// Jackson model has no notion of future reward.
type DRS struct {
	budget int
	// smoothing is the EWMA factor for rate estimates (DRS assumes
	// near-stationary streams; heavier smoothing = slower reaction).
	smoothing float64
	// backlogHorizon is the number of windows over which DRS plans to
	// drain observed backlog.
	backlogHorizon float64
	windowSec      float64

	lambda []float64
}

// Compile-time interface check.
var _ env.Controller = (*DRS)(nil)

// NewDRS returns a DRS controller with the given consumer budget and
// control window length.
func NewDRS(budget int, windowSec float64) *DRS {
	return &DRS{
		budget:         budget,
		smoothing:      0.3,
		backlogHorizon: 4,
		windowSec:      windowSec,
	}
}

// Name implements env.Controller.
func (d *DRS) Name() string { return "stream" }

// Reset implements env.Controller.
func (d *DRS) Reset() { d.lambda = nil }

// Decide implements env.Controller.
func (d *DRS) Decide(prev env.StepResult) []int {
	j := len(prev.Stats.WIP)
	if d.lambda == nil {
		d.lambda = make([]float64, j)
	}
	// Effective offered rate: smoothed external arrivals plus a share of
	// the backlog to be drained over the planning horizon.
	lambda := make([]float64, j)
	mu := make([]float64, j)
	for i := 0; i < j; i++ {
		arr := 0.0
		if prev.Stats.ArrivalRate != nil {
			arr = prev.Stats.ArrivalRate[i]
		}
		d.lambda[i] = d.smoothing*arr + (1-d.smoothing)*d.lambda[i]
		backlog := prev.Stats.WIP[i] / (d.backlogHorizon * d.windowSec)
		lambda[i] = d.lambda[i] + backlog
		mean := 1.0
		if prev.Stats.ServiceMean != nil && prev.Stats.ServiceMean[i] > 0 {
			mean = prev.Stats.ServiceMean[i]
		}
		mu[i] = 1 / mean
	}
	return allocateGreedySojourn(lambda, mu, d.budget)
}

// allocateGreedySojourn distributes budget units of consumers to minimise
// Σ_j λ_j · T_j(m_j) (expected jobs-in-system cost via Little), greedily by
// marginal improvement. Every microservice with offered load gets at least
// one consumer first (otherwise its sojourn is infinite and the greedy
// gradient is undefined).
func allocateGreedySojourn(lambda, mu []float64, budget int) []int {
	j := len(lambda)
	m := make([]int, j)
	remaining := budget

	// Pass 1: one consumer to every loaded queue, most-loaded first.
	type idx struct {
		i    int
		load float64
	}
	loaded := make([]idx, 0, j)
	for i := 0; i < j; i++ {
		if lambda[i] > 0 {
			loaded = append(loaded, idx{i, lambda[i] / mu[i]})
		}
	}
	// insertion-sort by descending load (j is small).
	for a := 1; a < len(loaded); a++ {
		v := loaded[a]
		b := a
		for ; b > 0 && loaded[b-1].load < v.load; b-- {
			loaded[b] = loaded[b-1]
		}
		loaded[b] = v
	}
	for _, l := range loaded {
		if remaining == 0 {
			break
		}
		m[l.i] = 1
		remaining--
	}

	// Pass 2: greedy marginal sojourn-cost reduction.
	cost := func(i, mi int) float64 {
		q := MMc{Lambda: lambda[i], Mu: mu[i], Servers: mi}
		s := q.Sojourn()
		if math.IsInf(s, 1) {
			// Unstable: cost proxy proportional to deficit keeps the
			// gradient informative.
			return 1e6 * (lambda[i]/mu[i] - float64(mi) + 1)
		}
		return lambda[i] * s
	}
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, 0.0
		for i := 0; i < j; i++ {
			if lambda[i] <= 0 {
				continue
			}
			gain := cost(i, m[i]) - cost(i, m[i]+1)
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // nothing loaded; leave the rest unallocated
		}
		m[best]++
	}
	return m
}
