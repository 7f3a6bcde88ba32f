package cluster

import (
	"fmt"
)

// This file models the machine level of the paper's testbed: a cluster of
// three virtual machines over which Kubernetes load-balances containers
// (§V), and the RabbitMQ acknowledgement mechanism that guarantees task
// requests "do not get lost in the system" when a consumer dies — the
// replication controller replaces failed containers and unacknowledged
// requests return to their queue.

// numNodes is the number of simulated machines consumers are placed on:
// the paper's testbed has 3 VMs.
const numNodes = 3

// nodePool tracks how many consumers each machine hosts. Placement policy
// is least-loaded-first, the effect of Kubernetes' default spreading.
type nodePool struct {
	counts []int
}

func newNodePool(n int) *nodePool {
	return &nodePool{counts: make([]int, n)}
}

// place assigns one consumer to the least-loaded node and returns its
// index.
func (p *nodePool) place() int {
	best := 0
	for i, c := range p.counts {
		if c < p.counts[best] {
			best = i
		}
	}
	p.counts[best]++
	return best
}

// release removes one consumer from the most-loaded node (scale-downs and
// failures retire from the fullest machine first, restoring balance).
func (p *nodePool) release() {
	best := 0
	for i, c := range p.counts {
		if c > p.counts[best] {
			best = i
		}
	}
	if p.counts[best] > 0 {
		p.counts[best]--
	}
}

// loads returns a copy of the per-node consumer counts.
func (p *nodePool) loads() []int {
	out := make([]int, len(p.counts))
	copy(out, p.counts)
	return out
}

// NodeLoads returns the number of consumers currently placed on each
// simulated machine.
func (c *Cluster) NodeLoads() []int { return c.nodes.loads() }

// Imbalance returns max−min of the per-node consumer counts — 0 or 1 under
// least-loaded placement unless failures have skewed the pool.
func (c *Cluster) Imbalance() int {
	loads := c.nodes.loads()
	if len(loads) == 0 {
		return 0
	}
	min, max := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	return max - min
}

// InjectFailure kills one consumer of microservice j, emulating a container
// crash:
//
//   - if the consumer was processing a request, that request is NOT lost —
//     the acknowledgement mechanism returns it to the head of its queue to
//     be re-delivered (the paper's RabbitMQ ack guarantee);
//   - the replication controller notices the missing replica and starts a
//     replacement container, which becomes available after the usual
//     start-up delay.
//
// It returns an error if microservice j has no live consumers to kill.
func (c *Cluster) InjectFailure(j int) error {
	return c.crashConsumer(j, -1)
}

// crashConsumer is the shared crash path behind InjectFailure and the
// faults.Target CrashConsumer hook. A non-negative restartDelay overrides
// the replacement container's start-up draw (the fault plan's MTTR).
func (c *Cluster) crashConsumer(j int, restartDelay float64) error {
	if j < 0 || j >= len(c.services) {
		return fmt.Errorf("cluster: microservice %d out of range", j)
	}
	svc := c.services[j]
	if svc.available == 0 {
		return fmt.Errorf("cluster: microservice %d has no live consumers", j)
	}
	c.touchBusy(svc)
	svc.available--
	c.nodes.release()
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
		if restartDelay >= 0 {
			c.startConsumerAfter(j, restartDelay)
		} else {
			c.startConsumer(j)
		}
	}
	// A replacement may immediately pick up work once started; meanwhile
	// the remaining consumers keep draining.
	c.dispatch(j)
	return nil
}

// Failures returns the number of injected consumer failures.
func (c *Cluster) Failures() uint64 { return c.failures }

// Redeliveries returns the number of task requests re-queued after their
// consumer died mid-processing. Conservation tests use it to prove the ack
// mechanism loses nothing.
func (c *Cluster) Redeliveries() uint64 { return c.redeliveries }
