package cluster

import (
	"fmt"

	"miras/internal/faults"
)

// This file is the cluster's side of the fault-injection subsystem: the
// faults.Target hooks the injector drives (CrashConsumer is also the one
// crash path for a kill timer), the fault counts, and the degraded capacity
// a failure-aware state observes. A plan is armed at construction by
// Config.Faults or later by ScheduleFaults.

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

// FaultsInjected returns the fault events injected so far: episode
// activations plus crash attempts, zero when no plan has been armed. The
// consumers those crashes killed are counted by Failures.
func (c *Cluster) FaultsInjected() uint64 {
	if c.injector == nil {
		return 0
	}
	return c.injector.Injected()
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

// CrashConsumer kills one consumer of microservice j, emulating a container
// crash; it implements faults.Target, and the failure-recovery example's
// kill timer calls it directly:
//
//   - if the consumer was processing a request, that request is NOT lost —
//     the acknowledgement mechanism returns it to the head of its queue to
//     be re-delivered (the paper's RabbitMQ ack guarantee);
//   - the replication controller notices the missing replica and starts a
//     replacement container. A non-negative restartDelaySec (the fault
//     plan's MTTR draw) is its start-up delay; a negative one keeps the
//     normal start-up draw.
//
// It returns an error if microservice j has no live consumers to kill.
func (c *Cluster) CrashConsumer(j int, restartDelaySec float64) error {
	if j < 0 || j >= len(c.services) {
		return fmt.Errorf("cluster: microservice %d out of range", j)
	}
	svc := c.services[j]
	if svc.available == 0 {
		return fmt.Errorf("cluster: microservice %d has no live consumers", j)
	}
	c.touchBusy(svc)
	svc.available--
	c.failures++

	// Busy consumers are killed with probability busy/available+1 — i.e.
	// uniformly over live consumers. When a busy one dies, its in-flight
	// request is withdrawn (dropping its token turns the scheduled
	// completion into a no-op) and requeued at the head (re-delivery).
	if svc.busy > 0 && c.failureRNG.Intn(svc.available+1) < svc.busy {
		if i := c.failureRNG.Intn(svc.busy); i < svc.inService.len() {
			svc.busy--
			svc.queue.pushFront(svc.inService.removeAt(i).req)
			c.redeliveries++
		}
	}

	// Replication controller: restore the target replica count if the
	// controller still wants more than we now have committed.
	if svc.target > svc.available+len(svc.pendingStarts) {
		if restartDelaySec >= 0 {
			c.startConsumerAfter(j, restartDelaySec)
		} else {
			c.startConsumer(j)
		}
	}
	// A replacement may immediately pick up work once started; meanwhile
	// the remaining consumers keep draining.
	c.dispatch(j)
	return nil
}

// Failures returns the number of consumers killed by CrashConsumer, whether
// a fault plan or a kill timer called it.
func (c *Cluster) Failures() uint64 { return c.failures }

// Redeliveries returns the number of task requests re-queued after their
// consumer died mid-processing. Conservation tests use it to prove the ack
// mechanism loses nothing.
func (c *Cluster) Redeliveries() uint64 { return c.redeliveries }

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

// Dropped returns the number of workflow instances lost to queue-drop
// episodes. Conservation under faults reads:
// completed + in-flight + dropped == submitted.
func (c *Cluster) Dropped() uint64 { return c.droppedInstances }
