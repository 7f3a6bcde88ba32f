package cluster

import (
	"math"
	"runtime"
	"testing"

	"miras/internal/faults"
	"miras/internal/invariant"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// deepQueueDigest pins the trajectory of TestDeepQueueTrajectoryPinned. It
// was captured on the container/heap engine with slice-shift queues, before
// either was replaced; the value must never be refreshed to make a change
// pass. Like the other golden digests it holds on linux/amd64 only, where
// math.Exp and math.Log have the assembly the value was captured with.
const deepQueueDigest = 0xf4af6e832cc0b088

// deepQueueDigestNoFMA is the same trajectory where math.Exp takes its
// non-FMA path (a CPU without FMA, or GODEBUG=cpu.fma=off), which rounds some
// log-normal draws one ulp apart. It was captured on the engine whose heap
// records held a Handler interface, before records became pointer-free, and
// is never refreshed either.
const deepQueueDigestNoFMA = 0x9f842cdc86b114e7

// expOnFMAPath reports whether math.Exp takes its FMA path in this process:
// 0x404759a28795660f is math.Exp(3.84375) there, and the non-FMA path
// rounds it one ulp higher.
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(3.84375)) == 0x404759a28795660f
}

// TestDeepQueueTrajectoryPinned drives an msd cluster through the orders a
// burst experiment rarely reaches all at once: bursts deep enough to grow
// every queue (to 1 400, 1 300, 370 and 60 deep), a second burst while the
// queues are part-drained (so they grow while wrapped), a crash process
// redelivering in-flight requests to the head of those queues, scale-ups
// dropped again before their containers start, a queue-drop episode, and a
// Clear mid-flight followed by more work. WIP, counters, fault tallies and
// every completion time are folded into one digest.
func TestDeepQueueTrajectoryPinned(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("trajectory digest is pinned for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	violations := withInvariants(t)
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.NewMSD(),
		Engine:           engine,
		Streams:          sim.NewStreams(2029),
		InitialConsumers: []int{2, 2, 2, 2},
		Faults: &faults.Plan{Specs: []faults.Spec{
			{Kind: faults.Crash, Service: faults.AllServices, StartSec: 20, DurationSec: 1500, MTTFSec: 4, MTTRSec: 6},
			{Kind: faults.QueueDrop, Service: 2, StartSec: 300, DurationSec: 60, Factor: 0.05},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			c.Submit(i % 3)
		}
	}
	dig := invariant.NewDigest()
	burst(1500)
	for k := 0; k < 60; k++ {
		switch k {
		case 8:
			burst(900)
		case 30:
			c.Clear()
			burst(1200)
		}
		// Scale up, then part of the way back down before the new
		// containers finish starting (start-up takes 5–10 s). The first
		// twelve windows of each half starve the downstream services so
		// their queues back up too, Render's to zero consumers.
		up := []int{10 + k%3, 1 + k%2, 1 + k%2, 1}
		down := []int{8, 1, 1, 0}
		if k%30 >= 12 {
			up = []int{2 + k%3, 8 + k%3, 8, 8}
			down = []int{2, 7, 6 + k%2, 7}
		}
		if err := c.SetConsumers(up); err != nil {
			t.Fatal(err)
		}
		c.AdvanceTo(c.Now() + 3)
		if err := c.SetConsumers(down); err != nil {
			t.Fatal(err)
		}
		c.AdvanceTo(c.Now() + 27)
		c.CheckInvariants()
		snap := c.Snapshot()
		dig.Floats(c.WIP()).Ints(c.Consumers()).Int(c.InFlight())
		for j := range snap.Arrivals {
			dig.Uint64(snap.Arrivals[j]).Uint64(snap.Completions[j]).
				Float64(snap.BusySeconds[j]).Float64(snap.ServiceSum[j]).Uint64(snap.ServiceCount[j])
		}
		for _, d := range c.DrainCompletions() {
			dig.Int(d.Workflow).Float64(d.ArrivedAt).Float64(d.CompletedAt)
		}
		dig.Uint64(c.Failures()).Uint64(c.Redeliveries()).Uint64(c.Dropped()).Uint64(c.Abandoned())
	}
	if len(*violations) != 0 {
		t.Fatalf("invariant violations: %v", *violations)
	}
	if c.Redeliveries() == 0 || c.Dropped() == 0 || c.Abandoned() == 0 {
		t.Fatalf("trajectory missed a regime: redeliveries=%d dropped=%d abandoned=%d",
			c.Redeliveries(), c.Dropped(), c.Abandoned())
	}
	want := uint64(deepQueueDigest)
	if !expOnFMAPath() {
		want = deepQueueDigestNoFMA
	}
	if got := dig.Sum(); got != want {
		t.Fatalf("deep-queue trajectory digest %#x, want %#x", got, want)
	}
}
