package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"miras/internal/sim"
	"miras/internal/workflow"
)

// newTestCluster builds a cluster over the given ensemble with instant
// container start-up (unless delays are provided) for deterministic tests.
func newTestCluster(t *testing.T, e *workflow.Ensemble, seed int64, initial []int) (*Cluster, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         e,
		Engine:           engine,
		Streams:          sim.NewStreams(seed),
		StartupDelayMin:  1e-9, // effectively instant but non-zero to exercise the path
		StartupDelayMax:  2e-9,
		InitialConsumers: initial,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, engine
}

func TestNewValidation(t *testing.T) {
	engine := sim.NewEngine()
	streams := sim.NewStreams(1)
	e := workflow.Toy()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing ensemble", Config{Engine: engine, Streams: streams}},
		{"missing engine", Config{Ensemble: e, Streams: streams}},
		{"missing streams", Config{Ensemble: e, Engine: engine}},
		{"bad delays", Config{Ensemble: e, Engine: engine, Streams: streams, StartupDelayMin: 5, StartupDelayMax: 2}},
		{"bad initial len", Config{Ensemble: e, Engine: engine, Streams: streams, InitialConsumers: []int{1}}},
		{"negative initial", Config{Ensemble: e, Engine: engine, Streams: streams, InitialConsumers: []int{1, -1}}},
		{"invalid ensemble", Config{Ensemble: &workflow.Ensemble{Name: "bad"}, Engine: engine, Streams: streams}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestSingleWorkflowCompletes(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 1, []int{1, 1})
	c.Submit(0)
	if c.InFlight() != 1 {
		t.Fatalf("InFlight=%d, want 1", c.InFlight())
	}
	engine.RunUntil(1000)
	done := c.DrainCompletions()
	if len(done) != 1 {
		t.Fatalf("completions=%d, want 1", len(done))
	}
	if c.InFlight() != 0 {
		t.Fatalf("InFlight=%d after completion", c.InFlight())
	}
	d := done[0]
	if d.Workflow != 0 || d.ArrivedAt != 0 || d.Delay() <= 0 {
		t.Fatalf("bad completion record: %+v", d)
	}
	// Two stages of ~2s mean each: delay should be in a few-seconds range.
	if d.Delay() < 0.5 || d.Delay() > 30 {
		t.Fatalf("delay %g outside plausible range", d.Delay())
	}
}

func TestWIPCountsQueuedAndInService(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 2, []int{1, 1})
	// Submit three requests at t=0: stage 1 has 1 in service + 2 queued.
	for i := 0; i < 3; i++ {
		c.Submit(0)
	}
	wip := c.WIP()
	if wip[0] != 3 {
		t.Fatalf("WIP[0]=%g, want 3", wip[0])
	}
	if wip[1] != 0 {
		t.Fatalf("WIP[1]=%g, want 0 before stage 1 finishes", wip[1])
	}
	if got := c.QueueLengths()[0]; got != 2 {
		t.Fatalf("queue[0]=%d, want 2", got)
	}
	engine.RunUntil(1000)
	if c.TotalWIP() != 0 {
		t.Fatalf("TotalWIP=%g after drain", c.TotalWIP())
	}
	if got := len(c.DrainCompletions()); got != 3 {
		t.Fatalf("completions=%d, want 3", got)
	}
}

func TestForkJoinSynchronization(t *testing.T) {
	// MSD Type3: Extract → (Align ∥ Segment) → Render. Render must run
	// exactly once per request, only after both branches finish.
	c, engine := newTestCluster(t, workflow.NewMSD(), 3, []int{2, 2, 2, 2})
	c.Submit(2) // Type3
	engine.RunUntil(1000)
	done := c.DrainCompletions()
	if len(done) != 1 {
		t.Fatalf("completions=%d, want 1", len(done))
	}
	snap := c.Snapshot()
	// Render (task 3) processed exactly one request.
	if snap.Completions[int(workflow.MSDRender)] != 1 {
		t.Fatalf("Render completions=%d, want 1 (join fired once)",
			snap.Completions[workflow.MSDRender])
	}
	// Align and Segment each processed one.
	if snap.Completions[workflow.MSDAlign] != 1 || snap.Completions[workflow.MSDSegment] != 1 {
		t.Fatalf("branch completions=%v", snap.Completions)
	}
}

func TestMoreConsumersProcessFaster(t *testing.T) {
	delayWith := func(consumers int) float64 {
		c, engine := newTestCluster(t, workflow.Toy(), 4, []int{consumers, consumers})
		for i := 0; i < 20; i++ {
			c.Submit(0)
		}
		engine.RunUntil(10000)
		done := c.DrainCompletions()
		if len(done) != 20 {
			t.Fatalf("completions=%d, want 20", len(done))
		}
		var sum float64
		for _, d := range done {
			sum += d.Delay()
		}
		return sum / float64(len(done))
	}
	slow := delayWith(1)
	fast := delayWith(8)
	if fast >= slow {
		t.Fatalf("8 consumers (%.2fs) not faster than 1 (%.2fs)", fast, slow)
	}
	if slow/fast < 2 {
		t.Fatalf("speedup %.2fx implausibly small for 8x consumers on a 20-deep backlog", slow/fast)
	}
}

func TestScaleUpTakesStartupDelay(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(5),
		StartupDelayMin:  5,
		StartupDelayMax:  10,
		InitialConsumers: []int{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetConsumers([]int{4, 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Consumers()[0]; got != 1 {
		t.Fatalf("consumers available immediately after scale-up: %d, want 1", got)
	}
	engine.RunUntil(4.99)
	if got := c.Consumers()[0]; got != 1 {
		t.Fatalf("consumers at t<5: %d, want 1 (startup min is 5s)", got)
	}
	engine.RunUntil(10)
	if got := c.Consumers()[0]; got != 4 {
		t.Fatalf("consumers at t=10: %d, want 4 (startup max is 10s)", got)
	}
}

func TestScaleDownImmediateButNoPreemption(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 6, []int{3, 1})
	engine.RunUntil(1) // let instant startups (if any) pass
	for i := 0; i < 3; i++ {
		c.Submit(0)
	}
	// All 3 stage-1 consumers busy now.
	if err := c.SetConsumers([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Consumers()[0]; got != 1 {
		t.Fatalf("available after scale-down: %d, want 1", got)
	}
	// The 3 running tasks still finish.
	engine.RunUntil(1000)
	if got := len(c.DrainCompletions()); got != 3 {
		t.Fatalf("completions=%d, want 3 (no preemption)", got)
	}
}

func TestScaleDownCancelsPendingStarts(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(7),
		StartupDelayMin:  5,
		StartupDelayMax:  10,
		InitialConsumers: []int{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetConsumers([]int{10, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetConsumers([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(20)
	if got := c.Consumers()[0]; got != 1 {
		t.Fatalf("consumers=%d after cancelled scale-up, want 1", got)
	}
}

func TestSetConsumersValidation(t *testing.T) {
	c, _ := newTestCluster(t, workflow.Toy(), 8, nil)
	if err := c.SetConsumers([]int{1}); err == nil {
		t.Fatal("expected error for wrong length")
	}
	if err := c.SetConsumers([]int{-1, 1}); err == nil {
		t.Fatal("expected error for negative target")
	}
}

func TestZeroConsumersStarveQueue(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 9, []int{0, 1})
	c.Submit(0)
	engine.RunUntil(100)
	if got := c.WIP()[0]; got != 1 {
		t.Fatalf("WIP[0]=%g with zero consumers, want 1 (starved)", got)
	}
	// Granting a consumer unblocks it.
	if err := c.SetConsumers([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(1000)
	if got := len(c.DrainCompletions()); got != 1 {
		t.Fatalf("completions=%d after unblocking, want 1", got)
	}
}

func TestClearAbandonsWork(t *testing.T) {
	c, engine := newTestCluster(t, workflow.NewMSD(), 10, []int{1, 1, 1, 1})
	for i := 0; i < 10; i++ {
		c.Submit(0)
	}
	engine.RunUntil(2)
	c.Clear()
	if c.TotalWIP() != 0 || c.InFlight() != 0 {
		t.Fatalf("Clear left WIP=%g inflight=%d", c.TotalWIP(), c.InFlight())
	}
	// In-flight completion events must not corrupt state after the reset.
	engine.RunUntil(1000)
	if c.TotalWIP() != 0 {
		t.Fatalf("stale events resurfaced WIP=%g", c.TotalWIP())
	}
	if got := len(c.DrainCompletions()); got != 0 {
		t.Fatalf("stale completions=%d after Clear", got)
	}
	// The cluster still works after a reset.
	c.Submit(0)
	engine.RunUntil(2000)
	if got := len(c.DrainCompletions()); got != 1 {
		t.Fatalf("completions=%d after post-Clear submit, want 1", got)
	}
}

func TestSnapshotCounters(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 11, []int{2, 2})
	before := c.Snapshot()
	for i := 0; i < 5; i++ {
		c.Submit(0)
	}
	engine.RunUntil(1000)
	after := c.Snapshot()
	for j := 0; j < 2; j++ {
		if after.Arrivals[j]-before.Arrivals[j] != 5 {
			t.Fatalf("task %d arrivals delta=%d, want 5", j, after.Arrivals[j]-before.Arrivals[j])
		}
		if after.Completions[j]-before.Completions[j] != 5 {
			t.Fatalf("task %d completions delta=%d, want 5", j, after.Completions[j]-before.Completions[j])
		}
		if after.BusySeconds[j] <= before.BusySeconds[j] {
			t.Fatalf("task %d busy time did not grow", j)
		}
		if after.ServiceCount[j] != 5 || after.ServiceSum[j] <= 0 {
			t.Fatalf("task %d service stats: count=%d sum=%g", j, after.ServiceCount[j], after.ServiceSum[j])
		}
	}
}

// TestLittlesLawSanity: in steady state, mean WIP ≈ arrival rate × mean
// delay (Little's law, the paper's justification for using WIP as the
// state). We run an M/G/m-ish system well below saturation and check the
// identity within tolerance.
func TestLittlesLawSanity(t *testing.T) {
	engine := sim.NewEngine()
	streams := sim.NewStreams(12)
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          streams,
		StartupDelayMin:  1e-9,
		StartupDelayMax:  2e-9,
		InitialConsumers: []int{4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	arrRNG := streams.Stream("test/arrivals")
	const lambda = 0.8 // requests/sec; utilisation ≈ 0.8·2/4 = 0.4 per stage
	const horizon = 20000.0
	// Schedule Poisson arrivals up front.
	tArr := 0.0
	n := 0
	for {
		tArr += sim.Exponential(arrRNG, 1/lambda)
		if tArr > horizon {
			break
		}
		engine.ScheduleAt(tArr, func() { c.Submit(0) })
		n++
	}
	// Sample time-averaged total WIP at 1s intervals.
	var wipSum float64
	var samples int
	for ts := 1.0; ts <= horizon; ts += 1.0 {
		engine.RunUntil(ts)
		wipSum += c.TotalWIP()
		samples++
	}
	engine.RunUntil(horizon + 1000)
	done := c.DrainCompletions()
	if len(done) < n*9/10 {
		t.Fatalf("only %d/%d completions", len(done), n)
	}
	var delaySum float64
	for _, d := range done {
		delaySum += d.Delay()
	}
	meanDelay := delaySum / float64(len(done))
	meanWIP := wipSum / float64(samples)
	// Little: L = λ·W. Tolerate 15% for finite-run noise.
	want := lambda * meanDelay
	if math.Abs(meanWIP-want)/want > 0.15 {
		t.Fatalf("Little's law violated: mean WIP %.3f vs λW %.3f", meanWIP, want)
	}
}

// Property: WIP is non-negative and InFlight consistent under random
// operation sequences.
func TestRandomOperationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		engine := sim.NewEngine()
		streams := sim.NewStreams(seed)
		c, err := New(Config{
			Ensemble:        workflow.NewMSD(),
			Engine:          engine,
			Streams:         streams,
			StartupDelayMin: 1,
			StartupDelayMax: 2,
		})
		if err != nil {
			return false
		}
		rng := streams.Stream("test/ops")
		now := 0.0
		for op := 0; op < 50; op++ {
			switch rng.Intn(4) {
			case 0:
				c.Submit(rng.Intn(3))
			case 1:
				target := make([]int, 4)
				for j := range target {
					target[j] = rng.Intn(5)
				}
				if err := c.SetConsumers(target); err != nil {
					return false
				}
			case 2:
				now += rng.Float64() * 30
				engine.RunUntil(now)
			case 3:
				if rng.Float64() < 0.1 {
					c.Clear()
				}
			}
			for _, w := range c.WIP() {
				if w < 0 {
					return false
				}
			}
			if c.InFlight() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — every submitted workflow either completes or
// remains in flight; task completions never exceed task arrivals.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		engine := sim.NewEngine()
		c, err := New(Config{
			Ensemble:         workflow.NewLIGO(),
			Engine:           engine,
			Streams:          sim.NewStreams(seed),
			StartupDelayMin:  1e-9,
			StartupDelayMax:  2e-9,
			InitialConsumers: []int{2, 2, 2, 2, 2, 2, 2, 2, 2},
		})
		if err != nil {
			return false
		}
		rng := sim.NewStreams(seed ^ 0x5555).Stream("submits")
		submitted := 0
		now := 0.0
		for i := 0; i < 40; i++ {
			c.Submit(rng.Intn(4))
			submitted++
			now += rng.Float64() * 5
			engine.RunUntil(now)
		}
		engine.RunUntil(now + 50)
		completed := len(c.DrainCompletions())
		if completed+c.InFlight() != submitted {
			return false
		}
		snap := c.Snapshot()
		for j := range snap.Arrivals {
			if snap.Completions[j] > snap.Arrivals[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitPanicsOnBadWorkflow(t *testing.T) {
	c, _ := newTestCluster(t, workflow.Toy(), 13, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Submit(5)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		c, engine := newTestCluster(t, workflow.NewMSD(), 99, []int{2, 2, 2, 2})
		for i := 0; i < 10; i++ {
			c.Submit(i % 3)
		}
		engine.RunUntil(500)
		var delays []float64
		for _, d := range c.DrainCompletions() {
			delays = append(delays, d.Delay())
		}
		return delays
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestBusyIntegralMatchesServiceDurations: consumer-busy seconds must equal
// the summed realised service durations of completed tasks once the system
// drains — the accounting identity behind the utilization statistic.
func TestBusyIntegralMatchesServiceDurations(t *testing.T) {
	c, engine := newTestCluster(t, workflow.Toy(), 60, []int{2, 2})
	for i := 0; i < 15; i++ {
		c.Submit(0)
	}
	engine.RunUntil(10000)
	snap := c.Snapshot()
	for j := 0; j < 2; j++ {
		if snap.Completions[j] != 15 {
			t.Fatalf("task %d completions=%d", j, snap.Completions[j])
		}
		if math.Abs(snap.BusySeconds[j]-snap.ServiceSum[j]) > 1e-6 {
			t.Fatalf("task %d busy integral %.6f != service sum %.6f",
				j, snap.BusySeconds[j], snap.ServiceSum[j])
		}
	}
}

// TestAdvanceAllocsIndependentOfEvents pins the event loop's allocation
// cost: once a cluster with a deep backlog is warm (rings and the heap at
// their working size) and arrivals have stopped, AdvanceTo allocates at most
// a small constant per window however many events the window fires. The
// closure-per-event engine made about three allocations per event.
func TestAdvanceAllocsIndependentOfEvents(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(Config{
		Ensemble: workflow.NewMSD(),
		Engine:   engine,
		Streams:  sim.NewStreams(31),
		// Downstream capacity exceeds Extract's, so only Extract's queue
		// is deep and the others stay at their warmed-up size.
		InitialConsumers: []int{16, 40, 30, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		c.Submit(i % 3)
	}
	const window = 60.0
	for k := 0; k < 3; k++ {
		c.AdvanceTo(c.Now() + window)
	}
	const runs = 10
	before := c.Snapshot()
	allocs := testing.AllocsPerRun(runs, func() { c.AdvanceTo(c.Now() + window) })
	after := c.Snapshot()
	var events uint64
	for j := range after.Completions {
		events += after.Completions[j] - before.Completions[j]
	}
	// AllocsPerRun makes one extra, unmeasured run.
	if perWindow := events / (runs + 1); perWindow < 1000 {
		t.Fatalf("only %d completions per window; the test needs ≥ 1000", perWindow)
	}
	if c.QueueLengths()[0] == 0 {
		t.Fatal("backlog drained; the windows must stay busy")
	}
	if allocs > 4 {
		t.Fatalf("AdvanceTo allocated %g times per window of ≥ 1000 events, want ≤ 4", allocs)
	}
}

// TestSubmitZeroAlloc pins Submit's allocation cost: an instance and its
// join countdown are carved from chunks, so 1 000 Submits into a warm cluster
// (queue rings at their working size) share a handful of chunk allocations
// and average under one per Submit. An instance and a countdown allocated
// per Submit made two.
func TestSubmitZeroAlloc(t *testing.T) {
	c, _ := newTestCluster(t, workflow.NewMSD(), 41, nil)
	for i := 0; i < 3000; i++ {
		c.Submit(i % 3)
	}
	c.Clear()
	i := 0
	if got := testing.AllocsPerRun(1000, func() { c.Submit(i % 3); i++ }); got != 0 {
		t.Fatalf("Submit: %g allocs/op, want 0", got)
	}
	if c.InFlight() != i {
		t.Fatalf("in flight %d after %d Submits", c.InFlight(), i)
	}
}
