package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"miras/internal/faults"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// newFaultyCluster is newTestCluster plus a construction-time fault plan.
func newFaultyCluster(t *testing.T, e *workflow.Ensemble, seed int64, initial []int, plan *faults.Plan) (*Cluster, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         e,
		Engine:           engine,
		Streams:          sim.NewStreams(seed),
		StartupDelayMin:  1e-9,
		StartupDelayMax:  2e-9,
		InitialConsumers: initial,
		Faults:           plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, engine
}

// TestEmptyPlanLeavesRunBitIdentical is the determinism acceptance check at
// the cluster level: arming an empty plan must not perturb any RNG stream,
// so the whole trajectory matches a plan-free run exactly.
func TestEmptyPlanLeavesRunBitIdentical(t *testing.T) {
	run := func(plan *faults.Plan) string {
		c, engine := newFaultyCluster(t, workflow.NewMSD(), 77, []int{2, 2, 2, 2}, plan)
		for i := 0; i < 40; i++ {
			c.Submit(i % c.Ensemble().NumWorkflows())
		}
		engine.RunUntil(500)
		return fmt.Sprint(c.DrainCompletions(), c.WIP(), c.Consumers(), c.Snapshot())
	}
	plain := run(nil)
	empty := run(&faults.Plan{})
	if plain != empty {
		t.Fatal("empty fault plan changed the trajectory")
	}
}

func TestConfigFaultsRejectsBadSpec(t *testing.T) {
	engine := sim.NewEngine()
	_, err := New(Config{
		Ensemble: workflow.Toy(),
		Engine:   engine,
		Streams:  sim.NewStreams(1),
		Faults:   &faults.Plan{Specs: []faults.Spec{{Kind: "meteor"}}},
	})
	if err == nil {
		t.Fatal("expected construction error for invalid fault plan")
	}
	if !strings.HasPrefix(err.Error(), "cluster: fault plan: ") {
		t.Fatalf("error %q does not name the fault plan", err)
	}
}

func TestCrashConsumerExplicitRestartDelay(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 11, []int{1, 1})
	engine.RunUntil(1) // initial consumers up
	if err := c.CrashConsumer(0, 50); err != nil {
		t.Fatal(err)
	}
	if got := c.Consumers()[0]; got != 0 {
		t.Fatalf("consumers[0]=%d after crash, want 0", got)
	}
	engine.RunUntil(50) // replacement lands at t=1+50
	if got := c.Consumers()[0]; got != 0 {
		t.Fatalf("consumers[0]=%d before restart delay elapsed, want 0", got)
	}
	engine.RunUntil(52)
	if got := c.Consumers()[0]; got != 1 {
		t.Fatalf("consumers[0]=%d after restart delay, want 1", got)
	}
	if c.Failures() != 1 {
		t.Fatalf("Failures=%d, want 1", c.Failures())
	}
}

func TestSlowdownScalesServiceTimes(t *testing.T) {
	run := func(factor float64) float64 {
		c, engine := newTestCluster(t, workflow.Toy(), 13, []int{1, 1})
		if factor != 1 {
			if err := c.ScheduleFaults(faults.Plan{Specs: []faults.Spec{{
				Kind: faults.Slowdown, Service: faults.AllServices,
				StartSec: 0, DurationSec: 10_000, Factor: factor,
			}}}); err != nil {
				t.Fatal(err)
			}
		}
		// Let the t=0 fault-begin event apply before submitting: initial
		// consumers are available synchronously, so a t=0 Submit would
		// dispatch stage 1 ahead of the episode start.
		engine.RunUntil(1)
		c.Submit(0)
		engine.RunUntil(10_000)
		done := c.DrainCompletions()
		if len(done) != 1 {
			t.Fatalf("completions=%d, want 1", len(done))
		}
		return done[0].Delay()
	}
	healthy := run(1)
	slowed := run(3)
	// Same seed → same LogNormal draws; the slowdown multiplies the realised
	// durations after the draw, so the end-to-end delay scales by exactly
	// the factor (startup waits are ~1e-9 and vanish in the tolerance).
	if math.Abs(slowed-3*healthy) > 1e-6 {
		t.Fatalf("slowed delay %g, want 3×healthy %g", slowed, 3*healthy)
	}
}

func TestStartupSpikeStretchesConsumerStarts(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(17),
		StartupDelayMin:  1,
		StartupDelayMax:  2,
		InitialConsumers: []int{0, 0}, // force the start-up path for the scale-up
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStartupSpike(10)
	if err := c.SetConsumers([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5)
	if got := c.Consumers()[0]; got != 0 {
		t.Fatalf("consumer up after %gs despite 10× spike on [1,2]s delays", engine.Now())
	}
	engine.RunUntil(25)
	if got := c.Consumers()[0]; got != 1 {
		t.Fatal("consumer never came up under spike")
	}
}

func TestQueueDropConservation(t *testing.T) {
	const n = 200
	c, engine := newTestCluster(t, workflow.Toy(), 19, []int{2, 2})
	c.SetQueueDrop(0, 0.3)
	for i := 0; i < n; i++ {
		c.Submit(0)
	}
	engine.RunUntil(100_000)
	completed := len(c.DrainCompletions())
	dropped := int(c.Dropped())
	if dropped == 0 {
		t.Fatal("no drops at p=0.3 over 200 submissions")
	}
	if completed+dropped+c.InFlight() != n {
		t.Fatalf("conservation broken: completed=%d dropped=%d inflight=%d submitted=%d",
			completed, dropped, c.InFlight(), n)
	}
	if c.InFlight() != 0 || c.TotalWIP() != 0 {
		t.Fatalf("failed instances left residue: inflight=%d wip=%g", c.InFlight(), c.TotalWIP())
	}
	// Reverting to healthy stops the drops.
	c.SetQueueDrop(0, 0)
	for i := 0; i < 20; i++ {
		c.Submit(0)
	}
	engine.RunUntil(200_000)
	if got := int(c.Dropped()); got != dropped {
		t.Fatalf("drops continued after revert: %d → %d", dropped, got)
	}
	if got := len(c.DrainCompletions()); got != 20 {
		t.Fatalf("healthy completions=%d, want 20", got)
	}
}

func TestEffectiveCapacityAndFaultView(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 23, []int{2, 4})
	engine.RunUntil(1)
	c.SetServiceSlowdown(1, 2)
	c.SetQueueDrop(0, 0.25)
	c.SetStartupSpike(5)
	cap := c.EffectiveCapacity()
	if cap[0] != 2 || cap[1] != 2 {
		t.Fatalf("EffectiveCapacity=%v, want [2 2]", cap)
	}
	if fmt.Sprint(c.Consumers()) != "[2 4]" || c.slowdownFactor(0) != 1 || c.slowdownFactor(1) != 2 ||
		fmt.Sprint(c.dropProb) != "[0.25 0]" || c.startupSpike != 5 {
		t.Fatalf("bad fault effects: consumers=%v slowdown=%v drop=%v spike=%g",
			c.Consumers(), c.slowdown, c.dropProb, c.startupSpike)
	}
	if err := c.CrashConsumer(1, 1); err != nil {
		t.Fatal(err)
	}
	if c.Failures() != 1 {
		t.Fatalf("Failures=%d, want 1", c.Failures())
	}
	if got := c.EffectiveCapacity()[1]; got != 1.5 {
		t.Fatalf("EffectiveCapacity[1]=%g after crash, want 1.5", got)
	}
	// A healthy cluster carries no fault effect.
	h, _ := newTestCluster(t, workflow.Toy(), 24, []int{1, 1})
	if h.slowdownFactor(0) != 1 || h.slowdownFactor(1) != 1 || h.startupSpike != 0 || h.dropProb != nil {
		t.Fatalf("healthy cluster has fault effects: slowdown=%v spike=%g drop=%v",
			h.slowdown, h.startupSpike, h.dropProb)
	}
	if fmt.Sprint(h.EffectiveCapacity()) != "[1 1]" {
		t.Fatalf("healthy EffectiveCapacity=%v, want [1 1]", h.EffectiveCapacity())
	}
}

func TestScheduledPlanEndToEnd(t *testing.T) {
	plan := &faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Crash, Service: 0, StartSec: 10, DurationSec: 400, MTTFSec: 30, MTTRSec: 5},
		{Kind: faults.Slowdown, Service: 1, StartSec: 20, DurationSec: 100, Factor: 2},
	}}
	c, engine := newFaultyCluster(t, workflow.Toy(), 29, []int{2, 2}, plan)
	if c.FaultSpecs() != 2 {
		t.Fatalf("FaultSpecs=%d, want 2", c.FaultSpecs())
	}
	for i := 0; i < 30; i++ {
		c.Submit(0)
	}
	engine.RunUntil(60)
	if len(c.ActiveFaults()) == 0 {
		t.Fatal("no active faults mid-episode")
	}
	engine.RunUntil(100_000)
	if c.Failures() == 0 {
		t.Fatal("crash process never killed a consumer")
	}
	if c.FaultsInjected() < c.Failures() {
		t.Fatalf("fault counts not kept: injected=%d < failures=%d", c.FaultsInjected(), c.Failures())
	}
	if len(c.ActiveFaults()) != 0 {
		t.Fatalf("faults still active after bounded episodes: %v", c.ActiveFaults())
	}
	// The ack mechanism plus restarts must still complete every instance.
	if got := len(c.DrainCompletions()); got != 30 {
		t.Fatalf("completions=%d, want all 30 despite crashes", got)
	}
}

func TestInjectFailureValidation(t *testing.T) {
	c, _ := newTestCluster(t, workflow.Toy(), 42, []int{0, 1})
	if err := c.CrashConsumer(-1, -1); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if err := c.CrashConsumer(5, -1); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if err := c.CrashConsumer(0, -1); err == nil {
		t.Fatal("expected error for zero-consumer microservice")
	}
}

func TestInjectFailureReplacesConsumer(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(43),
		StartupDelayMin:  5,
		StartupDelayMax:  10,
		InitialConsumers: []int{3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashConsumer(0, -1); err != nil {
		t.Fatal(err)
	}
	if got := c.Consumers()[0]; got != 2 {
		t.Fatalf("available=%d immediately after failure, want 2", got)
	}
	if c.Failures() != 1 {
		t.Fatalf("failures=%d", c.Failures())
	}
	// The replication controller restores the replica after start-up.
	engine.RunUntil(15)
	if got := c.Consumers()[0]; got != 3 {
		t.Fatalf("available=%d after replacement start-up, want 3", got)
	}
}

// TestNoRequestLossUnderFailures is the acknowledgement-mechanism
// guarantee: kill consumers mid-burst repeatedly; every submitted workflow
// must still complete.
func TestNoRequestLossUnderFailures(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.NewMSD(),
		Engine:           engine,
		Streams:          sim.NewStreams(44),
		StartupDelayMin:  1,
		StartupDelayMax:  2,
		InitialConsumers: []int{3, 3, 3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		c.Submit(i % 3)
	}
	// Kill a consumer every 3 virtual seconds for a while.
	for k := 0; k < 20; k++ {
		engine.RunUntil(float64(k+1) * 3)
		j := k % 4
		if c.Consumers()[j] > 0 {
			if err := c.CrashConsumer(j, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine.RunUntil(10000)
	done := len(c.DrainCompletions())
	if done != n {
		t.Fatalf("completed %d of %d despite ack mechanism (redeliveries=%d)",
			done, n, c.Redeliveries())
	}
	if c.Failures() == 0 {
		t.Fatal("no failures recorded")
	}
}

// TestRedeliveryHappens: with all consumers busy, a failure must requeue
// the in-flight request rather than dropping it.
func TestRedeliveryHappens(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(45),
		StartupDelayMin:  1,
		StartupDelayMax:  2,
		InitialConsumers: []int{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(0)
	// The single stage-1 consumer is now busy; killing it must redeliver.
	if err := c.CrashConsumer(0, -1); err != nil {
		t.Fatal(err)
	}
	if c.Redeliveries() != 1 {
		t.Fatalf("redeliveries=%d, want 1", c.Redeliveries())
	}
	if got := c.WIP()[0]; got != 1 {
		t.Fatalf("WIP[0]=%g after redelivery, want 1 (request back in queue)", got)
	}
	engine.RunUntil(1000)
	if got := len(c.DrainCompletions()); got != 1 {
		t.Fatalf("completions=%d, want 1", got)
	}
}

// Property: under arbitrary submit/scale/fail/advance sequences, no
// workflow is ever lost.
func TestFailureChaosConservation(t *testing.T) {
	f := func(seed int64) bool {
		engine := sim.NewEngine()
		streams := sim.NewStreams(seed)
		c, err := New(Config{
			Ensemble:         workflow.NewMSD(),
			Engine:           engine,
			Streams:          streams,
			StartupDelayMin:  1,
			StartupDelayMax:  2,
			InitialConsumers: []int{2, 2, 2, 2},
		})
		if err != nil {
			return false
		}
		rng := streams.Stream("chaos")
		submitted := 0
		now := 0.0
		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0:
				c.Submit(rng.Intn(3))
				submitted++
			case 1:
				j := rng.Intn(4)
				if c.Consumers()[j] > 0 {
					if err := c.CrashConsumer(j, -1); err != nil {
						return false
					}
				}
			case 2:
				target := make([]int, 4)
				for j := range target {
					target[j] = 1 + rng.Intn(4)
				}
				if err := c.SetConsumers(target); err != nil {
					return false
				}
			case 3:
				now += rng.Float64() * 10
				engine.RunUntil(now)
			}
		}
		// Give everything generous time to finish (targets ≥ 1 always).
		engine.RunUntil(now + 50000)
		return len(c.DrainCompletions())+c.InFlight() == submitted && c.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
