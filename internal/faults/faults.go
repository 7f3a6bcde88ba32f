// Package faults is the seeded, deterministic fault-injection layer for
// the emulated cluster. The paper evaluates MIRAS only on bursty-but-healthy
// workloads; real deployments also face the disturbances this package
// models — consumer container crashes (per-service MTTF/MTTR renewal
// processes), transient slowdowns that multiply service times, container
// start-up delay spikes, and queue-drop episodes that lose requests.
//
// A fault schedule is a Plan: a list of Specs, each describing one fault
// process or episode. An Injector arms a Plan against a Target (the
// cluster's failure hooks) on the discrete-event engine, drawing all
// randomness from named sim.Streams, so the same seed plus the same plan
// yields byte-identical traces — and an empty plan consumes no randomness
// at all, leaving fault-free runs bit-for-bit unchanged. The Injector keeps
// the only count of the fault events it injected (Injected) and the Target
// the only count of the consumers they killed; metrics are read from them,
// never handed to them.
//
// Spec is also the wire type of the HTTP API's POST /v1/sessions/{id}/faults
// endpoint (see internal/httpapi), hence the JSON tags.
package faults

import (
	"fmt"
	"math"
)

// Kind names a fault mechanism.
type Kind string

const (
	// Crash is a consumer crash/restart renewal process: consumers of the
	// target service die with exponential inter-failure times (mean MTTF);
	// each replacement container becomes available after an exponential
	// repair time (mean MTTR; the cluster's normal start-up delay when
	// MTTR is 0).
	Crash Kind = "crash"
	// Slowdown is a transient episode multiplying the target service's
	// realised service times by Factor (a slow node, noisy neighbour, or
	// thermal throttling).
	Slowdown Kind = "slowdown"
	// StartupSpike is an episode multiplying container start-up delays by
	// Factor (image-registry congestion, control-plane pressure). It is
	// cluster-wide: Service must be AllServices.
	StartupSpike Kind = "startup_spike"
	// QueueDrop is an episode during which each task request arriving at
	// the target service's queue is dropped with probability Factor,
	// failing its whole workflow instance (queue overflow, broker loss).
	QueueDrop Kind = "queue_drop"
)

// AllServices targets every microservice in a Spec.
const AllServices = -1

// Spec describes one fault process (Crash) or episode (the other kinds).
type Spec struct {
	// Kind selects the mechanism.
	Kind Kind `json:"kind"`
	// Service is the target microservice index, or AllServices (-1).
	// StartupSpike requires AllServices.
	Service int `json:"service"`
	// StartSec is when the fault begins, in virtual seconds relative to
	// the moment the plan is scheduled.
	StartSec float64 `json:"start_sec"`
	// DurationSec bounds the fault; 0 means open-ended (the fault runs
	// for the rest of the simulation). Episode kinds require a positive
	// duration.
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Factor is the service-time multiplier (Slowdown, > 0), the start-up
	// delay multiplier (StartupSpike, > 0), or the per-request drop
	// probability (QueueDrop, in (0, 1]).
	Factor float64 `json:"factor,omitempty"`
	// MTTFSec is the mean time to failure of a Crash process (> 0).
	MTTFSec float64 `json:"mttf_sec,omitempty"`
	// MTTRSec is the mean repair time of a Crash process; 0 uses the
	// cluster's normal container start-up delay.
	MTTRSec float64 `json:"mttr_sec,omitempty"`
}

// Validate checks the spec against a cluster with numServices microservices.
func (s Spec) Validate(numServices int) error {
	// NaN slips through every ordered comparison below (NaN < 0 is false),
	// and a NaN mean or factor would silently corrupt the event heap, so
	// every float field must be finite before the range checks mean anything.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"start_sec", s.StartSec},
		{"duration_sec", s.DurationSec},
		{"factor", s.Factor},
		{"mttf_sec", s.MTTFSec},
		{"mttr_sec", s.MTTRSec},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be finite, got %g", f.name, f.v)
		}
	}
	if s.Service != AllServices && (s.Service < 0 || s.Service >= numServices) {
		return fmt.Errorf("faults: service %d out of range [0, %d) (or -1 for all)",
			s.Service, numServices)
	}
	if s.StartSec < 0 {
		return fmt.Errorf("faults: negative start %g", s.StartSec)
	}
	if s.DurationSec < 0 {
		return fmt.Errorf("faults: negative duration %g", s.DurationSec)
	}
	switch s.Kind {
	case Crash:
		if s.MTTFSec <= 0 {
			return fmt.Errorf("faults: crash requires mttf_sec > 0, got %g", s.MTTFSec)
		}
		if s.MTTRSec < 0 {
			return fmt.Errorf("faults: negative mttr_sec %g", s.MTTRSec)
		}
	case Slowdown:
		if s.Factor <= 0 {
			return fmt.Errorf("faults: slowdown requires factor > 0, got %g", s.Factor)
		}
		if s.DurationSec == 0 {
			return fmt.Errorf("faults: slowdown episode requires duration_sec > 0")
		}
	case StartupSpike:
		if s.Factor <= 0 {
			return fmt.Errorf("faults: startup_spike requires factor > 0, got %g", s.Factor)
		}
		if s.DurationSec == 0 {
			return fmt.Errorf("faults: startup_spike episode requires duration_sec > 0")
		}
		if s.Service != AllServices {
			return fmt.Errorf("faults: startup_spike is cluster-wide; service must be -1")
		}
	case QueueDrop:
		if s.Factor <= 0 || s.Factor > 1 {
			return fmt.Errorf("faults: queue_drop requires factor in (0, 1], got %g", s.Factor)
		}
		if s.DurationSec == 0 {
			return fmt.Errorf("faults: queue_drop episode requires duration_sec > 0")
		}
	default:
		return fmt.Errorf("faults: unknown kind %q", s.Kind)
	}
	return nil
}

// Plan is an ordered fault schedule. Order matters only for determinism of
// tie-broken simultaneous events, not for semantics.
type Plan struct {
	Specs []Spec `json:"specs"`
}

// Validate checks every spec.
func (p Plan) Validate(numServices int) error {
	for i, s := range p.Specs {
		if err := s.Validate(numServices); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return nil
}

// ActiveFault describes one currently-armed fault, for the session API's
// live view and for experiment summaries.
type ActiveFault struct {
	// ID is the injector-assigned arming sequence number.
	ID int `json:"id"`
	// Kind and Service echo the spec.
	Kind    Kind `json:"kind"`
	Service int  `json:"service"`
	// SinceSec is the virtual time the fault became active.
	SinceSec float64 `json:"since_sec"`
	// UntilSec is when the fault ends; 0 means open-ended.
	UntilSec float64 `json:"until_sec,omitempty"`
	// Factor echoes the spec (0 for Crash).
	Factor float64 `json:"factor,omitempty"`
}
