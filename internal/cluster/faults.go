package cluster

import "miras/internal/faults"

// This file is the cluster's side of the fault-injection subsystem: the
// faults.Target hooks the injector drives, its fault counts, and the
// degraded-capacity view controllers and the HTTP API observe. A plan is
// armed at construction by Config.Faults or later by ScheduleFaults.

// ScheduleFaults validates plan and arms it on the cluster's engine,
// relative to the current virtual time. Plans compose: each call adds to
// whatever is already armed. The injector draws from its own named RNG
// streams, so an empty plan leaves the simulation bit-for-bit unchanged.
func (c *Cluster) ScheduleFaults(plan faults.Plan) error {
	if c.injector == nil {
		in, err := faults.NewInjector(c.engine, c.cfg.Streams, c, c.cfg.Tracer)
		if err != nil {
			return err
		}
		c.injector = in
	}
	return c.injector.Schedule(plan)
}

// ActiveFaults returns the currently live faults (empty when no plan has
// been scheduled).
func (c *Cluster) ActiveFaults() []faults.ActiveFault {
	if c.injector == nil {
		return nil
	}
	return c.injector.Active()
}

// FaultCounts returns the fault events injected so far (episode activations
// plus individual consumer crashes) and the consumers those crashes killed;
// both are zero when no plan has been armed.
func (c *Cluster) FaultCounts() (injected, crashes uint64) {
	if c.injector == nil {
		return 0, 0
	}
	return c.injector.Injected(), c.injector.Crashes()
}

// FaultSpecs returns the number of fault specs armed over the cluster's
// lifetime.
func (c *Cluster) FaultSpecs() int {
	if c.injector == nil {
		return 0
	}
	return c.injector.Scheduled()
}

// --- faults.Target implementation ---

// Compile-time check that the cluster exposes the injector's hook set.
var _ faults.Target = (*Cluster)(nil)

// NumServices implements faults.Target.
func (c *Cluster) NumServices() int { return len(c.services) }

// CrashConsumer implements faults.Target: it kills one live consumer of
// microservice j like InjectFailure, but when restartDelaySec is
// non-negative the replacement container becomes available after exactly
// that delay (the fault plan's MTTR draw) instead of the normal start-up
// draw.
func (c *Cluster) CrashConsumer(j int, restartDelaySec float64) error {
	return c.crashConsumer(j, restartDelaySec)
}

// SetServiceSlowdown implements faults.Target: subsequent service-time
// draws for microservice j are multiplied by factor (1 = healthy). The
// realised (multiplied) durations feed the service-time statistics, so a
// slowdown is observable in Stats.ServiceMean exactly as a slow node would
// be.
func (c *Cluster) SetServiceSlowdown(j int, factor float64) {
	if j < 0 || j >= len(c.services) || factor <= 0 {
		return
	}
	if c.slowdown == nil {
		c.slowdown = make([]float64, len(c.services))
		for i := range c.slowdown {
			c.slowdown[i] = 1
		}
	}
	c.slowdown[j] = factor
}

// SetStartupSpike implements faults.Target: subsequent container start-up
// delay draws are multiplied by factor (1 = healthy). Explicit restart
// delays passed to CrashConsumer are not spiked — they already are the
// repair time.
func (c *Cluster) SetStartupSpike(factor float64) {
	if factor <= 0 {
		return
	}
	c.startupSpike = factor
}

// SetQueueDrop implements faults.Target: while prob > 0, each task request
// arriving at microservice j's queue is dropped with that probability,
// failing its workflow instance (the whole request is lost, breaking the
// RabbitMQ no-loss guarantee on purpose — that is the fault being modelled).
func (c *Cluster) SetQueueDrop(j int, prob float64) {
	if j < 0 || j >= len(c.services) || prob < 0 || prob > 1 {
		return
	}
	if c.dropProb == nil {
		if prob == 0 {
			return
		}
		c.dropProb = make([]float64, len(c.services))
	}
	c.dropProb[j] = prob
}

// --- degraded-capacity view ---

// FaultView is the cluster's degraded-capacity snapshot: what a
// failure-aware controller (or the session API) can observe about active
// fault effects without being told the fault plan.
type FaultView struct {
	// Consumers and Targets mirror the scaling view: started consumers and
	// controller-requested counts per microservice.
	Consumers []int `json:"consumers"`
	Targets   []int `json:"targets"`
	// Slowdown is the per-microservice service-time multiplier (1 =
	// healthy).
	Slowdown []float64 `json:"slowdown"`
	// StartupSpike is the cluster-wide start-up delay multiplier (1 =
	// healthy).
	StartupSpike float64 `json:"startup_spike"`
	// DropProb is the per-microservice queue-drop probability (0 =
	// healthy).
	DropProb []float64 `json:"drop_prob"`
	// EffectiveCapacity is Consumers scaled by 1/Slowdown — the throughput
	// capacity the pool actually delivers.
	EffectiveCapacity []float64 `json:"effective_capacity"`
	// Crashed counts consumers killed, Redelivered the in-flight requests
	// requeued by the ack mechanism after their consumer died, and Dropped
	// the workflow instances lost to queue-drop episodes (all cumulative).
	Crashed     uint64 `json:"crashed"`
	Redelivered uint64 `json:"redelivered"`
	Dropped     uint64 `json:"dropped"`
}

// slowdownFactor returns the service-time multiplier for microservice j.
func (c *Cluster) slowdownFactor(j int) float64 {
	if c.slowdown == nil {
		return 1
	}
	return c.slowdown[j]
}

// EffectiveCapacity returns the per-microservice started-consumer count
// divided by the active slowdown factor — the degraded throughput capacity
// a failure-aware state vector exposes.
func (c *Cluster) EffectiveCapacity() []float64 {
	out := make([]float64, len(c.services))
	for j, svc := range c.services {
		out[j] = float64(svc.available) / c.slowdownFactor(j)
	}
	return out
}

// FaultView returns the current degraded-capacity snapshot.
func (c *Cluster) FaultView() FaultView {
	n := len(c.services)
	v := FaultView{
		Consumers:         c.Consumers(),
		Targets:           c.Targets(),
		Slowdown:          make([]float64, n),
		StartupSpike:      1,
		DropProb:          make([]float64, n),
		EffectiveCapacity: c.EffectiveCapacity(),
		Crashed:           c.failures,
		Redelivered:       c.redeliveries,
		Dropped:           c.droppedInstances,
	}
	if c.startupSpike > 0 {
		v.StartupSpike = c.startupSpike
	}
	for j := range v.Slowdown {
		v.Slowdown[j] = c.slowdownFactor(j)
	}
	if c.dropProb != nil {
		copy(v.DropProb, c.dropProb)
	}
	return v
}

// Dropped returns the number of workflow instances lost to queue-drop
// episodes. Conservation under faults reads:
// completed + in-flight + dropped == submitted.
func (c *Cluster) Dropped() uint64 { return c.droppedInstances }
