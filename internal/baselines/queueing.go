package baselines

// The queueing-theoretic machinery the DRS baseline is built on (Jackson
// open networks of M/M/c stations, per Fu et al., ICDCS 2015), which the
// test suite also uses to validate the cluster emulation against
// closed-form steady-state results.

import (
	"fmt"
	"math"

	"miras/internal/workflow"
)

// ErlangB returns the Erlang-B blocking probability for offered load a
// (erlangs) on m servers, computed with the standard stable recurrence.
func ErlangB(a float64, m int) float64 {
	if m < 0 {
		panic(fmt.Sprintf("queueing: negative servers %d", m))
	}
	if a <= 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= m; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability an arrival waits in an M/M/m queue with
// offered load a and m servers; 1 when the queue is unstable (a ≥ m) and
// for m = 0.
func ErlangC(a float64, m int) float64 {
	if m <= 0 {
		return 1
	}
	if a <= 0 {
		return 0
	}
	if a >= float64(m) {
		return 1
	}
	b := ErlangB(a, m)
	rho := a / float64(m)
	return b / (1 - rho + rho*b)
}

// MMc is one M/M/c station: Poisson arrivals at rate Lambda, exponential
// service at per-server rate Mu, Servers parallel servers.
type MMc struct {
	Lambda  float64
	Mu      float64
	Servers int
}

// OfferedLoad returns a = λ/μ in erlangs.
func (q MMc) OfferedLoad() float64 {
	if q.Mu <= 0 {
		return math.Inf(1)
	}
	return q.Lambda / q.Mu
}

// Utilization returns ρ = λ/(mμ).
func (q MMc) Utilization() float64 {
	if q.Servers <= 0 || q.Mu <= 0 {
		return math.Inf(1)
	}
	return q.Lambda / (float64(q.Servers) * q.Mu)
}

// Stable reports whether the station has a steady state (ρ < 1).
func (q MMc) Stable() bool {
	return q.Lambda >= 0 && q.Mu > 0 && q.Servers > 0 && q.Utilization() < 1
}

// WaitTime returns the expected queueing delay Wq (excluding service);
// 0 with no arrivals, +Inf when unstable.
func (q MMc) WaitTime() float64 {
	if q.Lambda <= 0 {
		return 0
	}
	if !q.Stable() {
		return math.Inf(1)
	}
	c := ErlangC(q.OfferedLoad(), q.Servers)
	return c / (float64(q.Servers)*q.Mu - q.Lambda)
}

// Sojourn returns the expected total time in system W = Wq + 1/μ.
func (q MMc) Sojourn() float64 {
	w := q.WaitTime()
	if math.IsInf(w, 1) {
		return w
	}
	return w + 1/q.Mu
}

// JobsInSystem returns L = λ·W — the steady-state expected work-in-progress
// at this station, the quantity the paper uses as RL state.
func (q MMc) JobsInSystem() float64 {
	w := q.Sojourn()
	if math.IsInf(w, 1) {
		return w
	}
	return q.Lambda * w
}

// VisitRates converts per-workflow-type request rates into per-task-type
// arrival rates: in a DAG every node is executed exactly once per request,
// so task type j's rate is Σ_i λ_i · (#nodes of type j in workflow i).
// This is the traffic-equation solution of the Jackson network induced by
// the ensemble (no routing loops, deterministic branching).
func VisitRates(e *workflow.Ensemble, wfRates []float64) ([]float64, error) {
	if len(wfRates) != e.NumWorkflows() {
		return nil, fmt.Errorf("queueing: %d rates for %d workflow types", len(wfRates), e.NumWorkflows())
	}
	rates := make([]float64, e.NumTasks())
	for i, wf := range e.Workflows {
		if wfRates[i] < 0 {
			return nil, fmt.Errorf("queueing: negative rate %g for workflow %d", wfRates[i], i)
		}
		for _, n := range wf.Nodes {
			rates[n.Task] += wfRates[i]
		}
	}
	return rates, nil
}

// ExpectedWIP returns the Jackson-network steady-state expected jobs in
// system per microservice, treating each as an independent M/M/m station
// with service rate 1/MeanServiceSec and the VisitRates arrival rates.
// Unstable stations report +Inf. This is DRS's model of the system, and
// the emulator-validation tests compare it against measured time averages.
func ExpectedWIP(e *workflow.Ensemble, wfRates []float64, consumers []int) ([]float64, error) {
	if len(consumers) != e.NumTasks() {
		return nil, fmt.Errorf("queueing: %d consumer counts for %d task types", len(consumers), e.NumTasks())
	}
	rates, err := VisitRates(e, wfRates)
	if err != nil {
		return nil, err
	}
	wip := make([]float64, e.NumTasks())
	for j := range wip {
		q := MMc{
			Lambda:  rates[j],
			Mu:      1 / e.Tasks[j].MeanServiceSec,
			Servers: consumers[j],
		}
		wip[j] = q.JobsInSystem()
	}
	return wip, nil
}
