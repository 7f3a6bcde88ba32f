// Package cluster emulates the paper's microservice workflow infrastructure
// (Figure 1): per-task-type request queues, pools of identical consumers,
// Kubernetes-style scaling with container start-up delay, and the workflow
// invoker / consumer control flow that routes requests through workflow
// DAGs.
//
// This is the substitution for the paper's Google Cloud deployment
// (RabbitMQ queues + Docker consumers + Kubernetes replication controllers);
// see DESIGN.md §1. The emulation is a deterministic discrete-event model:
// the controller observes exactly what the paper's controller observes
// (per-microservice work-in-progress at window boundaries, workflow response
// times) and actuates exactly what the paper's controller actuates (the
// number of consumers per microservice, bounded by a total budget).
package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"miras/internal/faults"
	"miras/internal/invariant"
	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// requestSizeCV is the coefficient of variation of the per-request
// input-size factor that scales all of a workflow request's task service
// times; the paper attributes service-time variation to "variant sizes of
// input data".
const requestSizeCV = 0.3

// requestSize is the distribution of that factor, whose mean is 1.
var requestSize = sim.NewLogNormal(requestSizeCV)

// Submit carves instances, and their predecessor counts, from chunks of
// these lengths. Nothing carved is reused, so a chunk lives until its last
// instance is unreachable.
const (
	instanceChunk = 256
	predChunk     = 2048
)

// Config parameterises a Cluster.
type Config struct {
	// Ensemble is the workflow ensemble the cluster serves. Required.
	Ensemble *workflow.Ensemble
	// Engine is the discrete-event engine driving virtual time. Required.
	Engine *sim.Engine
	// Streams supplies named RNG streams. Required.
	Streams *sim.Streams
	// StartupDelayMin/Max bound the uniform container start-up delay in
	// seconds. The paper measured 5–10 s on Kubernetes (§VI-A2); those are
	// the defaults when both are zero.
	StartupDelayMin float64
	StartupDelayMax float64
	// InitialConsumers sets the starting consumer count per task type.
	// Defaults to 1 per microservice when nil.
	InitialConsumers []int
	// Tracer, when non-nil, emits one zero-length "cluster.scale" span per
	// SetConsumers actuation carrying the queue depths it reacted to, one
	// per dropped request (info) and one per consumer start and arrival
	// with the realised startup delay (debug), plus the fault injector's
	// spans (one "fault.episode" per fault window, one "fault.crash" per
	// crash). Nil disables all telemetry at zero cost.
	Tracer *obs.Tracer
	// Faults, when non-nil, is a fault plan New arms at virtual time zero,
	// exactly as ScheduleFaults right after New would. An empty plan arms
	// nothing but still builds the injector; its named RNG streams leave
	// the run bit-identical to a nil plan.
	Faults *faults.Plan
}

func (c Config) withDefaults() Config {
	if c.StartupDelayMin == 0 && c.StartupDelayMax == 0 {
		c.StartupDelayMin, c.StartupDelayMax = 5, 10
	}
	return c
}

// Completion records one finished workflow request.
type Completion struct {
	// Workflow is the workflow type index.
	Workflow int
	// ArrivedAt and CompletedAt are the request's virtual arrival and
	// completion times; CompletedAt − ArrivedAt is the processing time
	// ("average delay" numerator) defined in §II-B.
	ArrivedAt   sim.Time
	CompletedAt sim.Time
}

// Delay returns the workflow request's end-to-end processing time.
func (c Completion) Delay() float64 { return c.CompletedAt - c.ArrivedAt }

// instance tracks one in-flight workflow request through its DAG.
type instance struct {
	wf             int
	arrivedAt      sim.Time
	sizeFactor     float64
	remainingPreds []int32
	nodesDone      int
	// failed marks an instance lost to a queue-drop fault: no further
	// tasks are enqueued and no completion is recorded. Tasks already in
	// queues or in service still occupy capacity (orphan work, as in a
	// real broker loss).
	failed bool
}

// taskRequest is one node of one workflow instance waiting in (or being
// served from) a microservice queue. Requests are values: queues and the
// in-service ledger hold them directly.
type taskRequest struct {
	inst *instance
	node int
}

// microservice is one task type's queue plus consumer pool.
type microservice struct {
	queue ring[taskRequest]
	// mean and service are the task type's mean service time and its
	// log-normal shape, built once in New.
	mean    float64
	service sim.LogNormal
	// target is the controller-requested consumer count.
	target int
	// available is the number of consumers that have finished starting up.
	available int
	// busy is the number of consumers currently processing a request.
	// busy can exceed available transiently after a scale-down: running
	// tasks finish, they are not preempted.
	busy int
	// pendingStarts holds the tokens of scheduled container starts, oldest
	// first; a scale-down before start-up completes withdraws a start by
	// dropping its token.
	pendingStarts []uint64
	// inService pairs each in-flight request with its completion token, in
	// dispatch order, so failure injection can withdraw and re-deliver work.
	inService ring[inServiceEntry]

	// Cumulative counters, snapshotted by callers to form window deltas.
	arrivals    uint64
	completions uint64
	// busyIntegral accumulates consumer-busy seconds; busyMark is the time
	// of the last busy-count change.
	busyIntegral float64
	busyMark     sim.Time
	// serviceSum/serviceCount accumulate realised service durations.
	serviceSum   float64
	serviceCount uint64
}

// inServiceEntry tracks one request being processed and the token of its
// scheduled completion.
type inServiceEntry struct {
	token uint64
	req   taskRequest
}

// Cluster is the emulated microservice workflow system.
type Cluster struct {
	cfg      Config
	engine   *sim.Engine
	services []*microservice

	serviceRNG *rand.Rand
	sizeRNG    *rand.Rand
	startupRNG *rand.Rand
	failureRNG *rand.Rand

	failures     uint64
	redeliveries uint64

	// Fault-effect state driven through the faults.Target hooks. All nil /
	// zero when healthy, so the fault-free hot path costs one nil check.
	slowdown         []float64 // per-service service-time multiplier
	startupSpike     float64   // start-up delay multiplier (0 = off)
	dropProb         []float64 // per-service queue-drop probability
	droppedInstances uint64    // workflow instances lost to queue drops
	injector         *faults.Injector

	// events is the cluster's handler ID on the engine and lastToken the
	// most recently issued event token (see clusterEvents).
	events    sim.HandlerID
	lastToken uint64

	// preds[wf] holds workflow type wf's predecessor count per node, the
	// initial join countdown each instance copies. instances and predSlab
	// are the unused tails of the chunks Submit carves from.
	preds     [][]int32
	instances []instance
	predSlab  []int32

	inFlight    int // live workflow instances
	completions []Completion

	// Lifetime instance accounting for the conservation invariant:
	// submitted == completedInstances + inFlight + droppedInstances + abandoned.
	submitted          uint64
	completedInstances uint64
	abandoned          uint64 // in-flight instances discarded by Clear

	// inv holds the cluster's registered runtime invariants; env runs it at
	// every window boundary via CheckInvariants. No-op unless enabled.
	inv *invariant.Set
}

// New validates cfg, arms cfg.Faults, and returns a fresh cluster with all
// queues empty.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Ensemble == nil || cfg.Engine == nil || cfg.Streams == nil {
		return nil, fmt.Errorf("cluster: Ensemble, Engine, and Streams are required")
	}
	if cfg.StartupDelayMin < 0 || cfg.StartupDelayMax < cfg.StartupDelayMin {
		return nil, fmt.Errorf("cluster: invalid startup delay range [%g, %g]",
			cfg.StartupDelayMin, cfg.StartupDelayMax)
	}
	if err := cfg.Ensemble.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	j := cfg.Ensemble.NumTasks()
	if j > maxServices {
		return nil, fmt.Errorf("cluster: %d task types, at most %d supported", j, maxServices)
	}
	if cfg.InitialConsumers != nil && len(cfg.InitialConsumers) != j {
		return nil, fmt.Errorf("cluster: InitialConsumers length %d != %d task types",
			len(cfg.InitialConsumers), j)
	}
	c := &Cluster{
		cfg:        cfg,
		engine:     cfg.Engine,
		serviceRNG: cfg.Streams.Stream("cluster/service"),
		sizeRNG:    cfg.Streams.Stream("cluster/size"),
		startupRNG: cfg.Streams.Stream("cluster/startup"),
		failureRNG: cfg.Streams.Stream("cluster/failure"),
	}
	c.events = cfg.Engine.Register((*clusterEvents)(c))
	for _, wt := range cfg.Ensemble.Workflows {
		preds := make([]int32, wt.NumNodes())
		for i := range preds {
			preds[i] = int32(len(wt.Predecessors(i)))
		}
		c.preds = append(c.preds, preds)
	}
	for i := 0; i < j; i++ {
		n := 1
		if cfg.InitialConsumers != nil {
			n = cfg.InitialConsumers[i]
		}
		if n < 0 {
			return nil, fmt.Errorf("cluster: negative initial consumers for task %d", i)
		}
		task := cfg.Ensemble.Tasks[i]
		c.services = append(c.services, &microservice{target: n, available: n,
			mean: task.MeanServiceSec, service: sim.NewLogNormal(task.ServiceCV)})
	}
	if cfg.Faults != nil {
		if err := c.ScheduleFaults(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("cluster: fault plan: %w", err)
		}
	}
	c.registerInvariants()
	return c, nil
}

// registerInvariants declares the cluster's runtime invariants. They are
// evaluated by CheckInvariants (a no-op while invariant checking is
// disabled), which env.Step runs at every window boundary.
func (c *Cluster) registerInvariants() {
	inv := invariant.NewSet("cluster")
	// Workflow-instance conservation: nothing the invoker submitted may
	// leak. Every instance is exactly one of completed, in flight, dropped
	// by a queue-drop fault, or abandoned by an explicit Clear.
	inv.Register("conservation", func() error {
		accounted := c.completedInstances + uint64(c.inFlight) + c.droppedInstances + c.abandoned
		if c.inFlight < 0 || c.submitted != accounted {
			return fmt.Errorf("submitted %d != completed %d + in-flight %d + dropped %d + abandoned %d",
				c.submitted, c.completedInstances, c.inFlight, c.droppedInstances, c.abandoned)
		}
		return nil
	})
	// Per-microservice pool sanity: counts non-negative and the busy count
	// in lock-step with the in-service ledger (a skew means a completion
	// fired twice or a crash withdrew a request without freeing a consumer).
	inv.Register("service-pools", func() error {
		for j, svc := range c.services {
			if svc.available < 0 || svc.busy < 0 || svc.target < 0 {
				return fmt.Errorf("service %d: negative pool state available=%d busy=%d target=%d",
					j, svc.available, svc.busy, svc.target)
			}
			if svc.busy != svc.inService.len() {
				return fmt.Errorf("service %d: busy=%d but %d requests in service",
					j, svc.busy, svc.inService.len())
			}
			if svc.completions > svc.arrivals {
				return fmt.Errorf("service %d: completions %d exceed arrivals %d",
					j, svc.completions, svc.arrivals)
			}
		}
		return nil
	})
	// The DAG caches the join-synchronisation countdown depends on must stay
	// self-consistent (ensembles are shared, mutable pointers).
	inv.Register("workflow-dags", func() error {
		for _, wf := range c.cfg.Ensemble.Workflows {
			if err := wf.CheckConsistency(); err != nil {
				return err
			}
		}
		return nil
	})
	// Active faults must sit inside their declared activation windows.
	inv.Register("fault-windows", func() error {
		if c.injector == nil {
			return nil
		}
		return c.injector.CheckWindows(c.engine.Now())
	})
	c.inv = inv
}

// CheckInvariants evaluates every registered cluster invariant, reporting
// violations through the invariant package (panic by default). It is a no-op
// while invariant checking is disabled, so callers run it unconditionally at
// window boundaries.
func (c *Cluster) CheckInvariants() { c.inv.Run() }

// Ensemble returns the workflow ensemble the cluster serves.
func (c *Cluster) Ensemble() *workflow.Ensemble { return c.cfg.Ensemble }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.engine.Now() }

// NumTasks returns the number of microservices (task types).
func (c *Cluster) NumTasks() int { return len(c.services) }

// Submit enqueues a new request of the given workflow type at the current
// virtual time (the workflow invoker's role in Figure 1 steps 1–2). It
// allocates only when a chunk runs out.
func (c *Cluster) Submit(wf int) {
	if wf < 0 || wf >= len(c.preds) {
		panic(fmt.Sprintf("cluster: workflow type %d out of range", wf))
	}
	if len(c.instances) == 0 {
		c.instances = make([]instance, instanceChunk)
	}
	inst := &c.instances[0]
	c.instances = c.instances[1:]
	preds := c.preds[wf]
	n := len(preds)
	if len(c.predSlab) < n {
		c.predSlab = make([]int32, max(predChunk, n))
	}
	inst.remainingPreds = c.predSlab[:n:n]
	c.predSlab = c.predSlab[n:]
	copy(inst.remainingPreds, preds)
	inst.wf = wf
	inst.arrivedAt = c.engine.Now()
	inst.sizeFactor = requestSize.Draw(c.sizeRNG, 1)
	c.inFlight++
	c.submitted++
	for _, root := range c.cfg.Ensemble.Workflows[wf].Roots() {
		c.enqueue(taskRequest{inst: inst, node: root})
	}
}

// enqueue places a task request on its microservice queue and dispatches.
// During a queue-drop fault episode the request may be dropped instead,
// failing its workflow instance.
func (c *Cluster) enqueue(req taskRequest) {
	if req.inst.failed {
		return
	}
	j := int(c.cfg.Ensemble.Workflows[req.inst.wf].Nodes[req.node].Task)
	svc := c.services[j]
	if c.dropProb != nil && c.dropProb[j] > 0 && c.failureRNG.Float64() < c.dropProb[j] {
		c.dropRequest(j, req)
		return
	}
	svc.arrivals++
	svc.queue.pushBack(req)
	c.dispatch(j)
}

// dropRequest loses one task request to a queue-drop fault, failing the
// whole workflow instance (it can never complete once a node is lost).
func (c *Cluster) dropRequest(j int, req taskRequest) {
	inst := req.inst
	inst.failed = true
	c.inFlight--
	c.droppedInstances++
	if invariant.Enabled() {
		invariant.Checkf("cluster/conservation", c.inFlight >= 0,
			"in-flight went negative (%d) dropping workflow %d", c.inFlight, inst.wf)
	}
	now := c.engine.Now()
	c.cfg.Tracer.Start("cluster.request_dropped").T0(now).
		Int("service", j).
		Int("workflow", inst.wf).
		Int("node", req.node).
		Uint("dropped_total", c.droppedInstances).
		EndT(now)
}

// dispatch starts idle consumers on queued requests for microservice j.
func (c *Cluster) dispatch(j int) {
	svc := c.services[j]
	for svc.busy < svc.available && svc.queue.len() > 0 {
		req := svc.queue.popFront()
		c.touchBusy(svc)
		svc.busy++
		dur := svc.service.Draw(c.serviceRNG, svc.mean*req.inst.sizeFactor)
		if c.slowdown != nil {
			// Slowdown faults stretch the realised duration after the
			// draw, so the underlying service-time stream is untouched
			// and fault-free runs stay bit-identical.
			dur *= c.slowdown[j]
		}
		svc.serviceSum += dur
		svc.serviceCount++
		svc.inService.pushBack(inServiceEntry{token: c.schedule(dur, evComplete, j), req: req})
	}
}

// complete finishes one task request: frees its consumer, publishes
// successor tasks whose predecessors are all done (Figure 1 step 4), and
// records workflow completion when the instance's last node finishes.
func (c *Cluster) complete(j int, req taskRequest) {
	svc := c.services[j]
	c.touchBusy(svc)
	svc.busy--
	svc.completions++
	if invariant.Enabled() {
		invariant.Checkf("cluster/service-pools", svc.busy >= 0,
			"service %d busy count went negative (%d)", j, svc.busy)
	}

	inst := req.inst
	if inst.failed {
		// The instance was lost to a queue drop after this task entered
		// service; the consumer is freed but the DAG goes no further.
		c.dispatch(j)
		return
	}
	inst.nodesDone++
	wt := c.cfg.Ensemble.Workflows[inst.wf]
	if invariant.Enabled() {
		// Join synchronisation: a node may finish at most once, so nodesDone
		// is bounded by the DAG size and no predecessor countdown may cross
		// zero (a negative count means a double-publish).
		invariant.Checkf("workflow/join-sync", inst.nodesDone <= wt.NumNodes(),
			"workflow %d instance finished %d nodes of %d", inst.wf, inst.nodesDone, wt.NumNodes())
	}
	for _, succ := range wt.Successors(req.node) {
		inst.remainingPreds[succ]--
		if invariant.Enabled() {
			invariant.Checkf("workflow/join-sync", inst.remainingPreds[succ] >= 0,
				"workflow %d node %d predecessor count went negative (%d): double-published join",
				inst.wf, succ, inst.remainingPreds[succ])
		}
		if inst.remainingPreds[succ] == 0 {
			c.enqueue(taskRequest{inst: inst, node: succ})
		}
	}
	if inst.nodesDone == wt.NumNodes() {
		c.inFlight--
		c.completedInstances++
		c.completions = append(c.completions, Completion{
			Workflow:    inst.wf,
			ArrivedAt:   inst.arrivedAt,
			CompletedAt: c.engine.Now(),
		})
	}
	c.dispatch(j)
}

// touchBusy folds the elapsed busy-consumer time into the busy integral.
func (c *Cluster) touchBusy(svc *microservice) {
	now := c.engine.Now()
	svc.busyIntegral += float64(svc.busy) * (now - svc.busyMark)
	svc.busyMark = now
}

// SetConsumers applies a resource-allocation decision m(k): the desired
// consumer count per microservice. Scale-ups take effect after a simulated
// container start-up delay (uniform in the configured range, started in
// parallel, as Kubernetes does); scale-downs are immediate but running
// tasks are never preempted.
func (c *Cluster) SetConsumers(target []int) error {
	if len(target) != len(c.services) {
		return fmt.Errorf("cluster: target length %d != %d microservices", len(target), len(c.services))
	}
	for j, m := range target {
		if m < 0 {
			return fmt.Errorf("cluster: negative consumer count %d for task %d", m, j)
		}
		c.setTarget(j, m)
	}
	// One scale span per decision, carrying the queue depths the decision
	// reacted to — the paper's Figure 1 control actuation, observable. The
	// actuation is instantaneous in virtual time, so the span is a
	// zero-duration marker, parented under whatever window span is ambient.
	if sp := c.cfg.Tracer.Start("cluster.scale"); sp != nil {
		now := c.engine.Now()
		sp.T0(now).
			Ints("target", target).
			Ints("available", c.Consumers()).
			Ints("queues", c.QueueLengths()).
			Int("inflight", c.inFlight).
			EndT(now)
	}
	return nil
}

func (c *Cluster) setTarget(j, m int) {
	svc := c.services[j]
	svc.target = m
	committed := svc.available + len(svc.pendingStarts)
	switch {
	case m > committed:
		for i := committed; i < m; i++ {
			c.startConsumer(j)
		}
	case m < committed:
		// Withdraw not-yet-started containers first, newest first: a
		// dropped token turns its start event into a no-op.
		excess := committed - m
		for excess > 0 && len(svc.pendingStarts) > 0 {
			svc.pendingStarts = svc.pendingStarts[:len(svc.pendingStarts)-1]
			excess--
		}
		// Then retire running/idle consumers immediately (running tasks
		// complete; the dispatch guard busy < available prevents new work
		// beyond the reduced pool).
		for excess > 0 && svc.available > 0 {
			svc.available--
			excess--
		}
	}
}

// startConsumer schedules one container start for microservice j; the
// consumer becomes available after the start-up delay, stretched by any
// active startup-spike fault.
func (c *Cluster) startConsumer(j int) {
	delay := sim.Uniform(c.startupRNG, c.cfg.StartupDelayMin, c.cfg.StartupDelayMax)
	if c.startupSpike > 0 {
		delay *= c.startupSpike
	}
	c.startConsumerAfter(j, delay)
}

// startConsumerAfter schedules one container start with an explicit delay
// (a fault plan's MTTR draw, or the normal start-up draw).
func (c *Cluster) startConsumerAfter(j int, delay float64) {
	svc := c.services[j]
	if sp := c.cfg.Tracer.StartDebug("cluster.consumer_start"); sp != nil {
		now := c.engine.Now()
		sp.T0(now).Int("service", j).F64("startup_delay", delay).EndT(now)
	}
	svc.pendingStarts = append(svc.pendingStarts, c.schedule(delay, evStart, j))
}

// consumerUp brings a started container of microservice j into the pool,
// unless the start was withdrawn (its token dropped by a scale-down or a
// Clear).
func (c *Cluster) consumerUp(j int, tok uint64) {
	svc := c.services[j]
	i := slices.Index(svc.pendingStarts, tok)
	if i < 0 {
		return
	}
	svc.pendingStarts = slices.Delete(svc.pendingStarts, i, i+1)
	svc.available++
	if sp := c.cfg.Tracer.StartDebug("cluster.consumer_up"); sp != nil {
		now := c.engine.Now()
		sp.T0(now).Int("service", j).Int("available", svc.available).EndT(now)
	}
	c.dispatch(j)
}

// completed finishes the in-service request holding tok, unless a crash or
// a Clear withdrew it.
func (c *Cluster) completed(j int, tok uint64) {
	svc := c.services[j]
	for i := 0; i < svc.inService.len(); i++ {
		if e := svc.inService.at(i); e.token == tok {
			svc.inService.removeAt(i)
			c.complete(j, e.req)
			return
		}
	}
}

// WIP returns the current work-in-progress vector w(k): per microservice,
// the number of task requests waiting in the queue plus those being
// processed (§II-B).
func (c *Cluster) WIP() []float64 {
	wip := make([]float64, len(c.services))
	for j, svc := range c.services {
		wip[j] = float64(svc.queue.len() + svc.busy)
	}
	return wip
}

// QueueLengths returns the per-microservice queue lengths (excluding tasks
// in service).
func (c *Cluster) QueueLengths() []int {
	q := make([]int, len(c.services))
	for j, svc := range c.services {
		q[j] = svc.queue.len()
	}
	return q
}

// Consumers returns the per-microservice available (started) consumer
// counts.
func (c *Cluster) Consumers() []int {
	m := make([]int, len(c.services))
	for j, svc := range c.services {
		m[j] = svc.available
	}
	return m
}

// Targets returns the most recently requested consumer counts.
func (c *Cluster) Targets() []int {
	m := make([]int, len(c.services))
	for j, svc := range c.services {
		m[j] = svc.target
	}
	return m
}

// InFlight returns the number of live (incomplete) workflow instances.
func (c *Cluster) InFlight() int { return c.inFlight }

// Submitted returns the lifetime count of workflow instances submitted.
func (c *Cluster) Submitted() uint64 { return c.submitted }

// CompletedInstances returns the lifetime count of workflow instances that
// finished every DAG node.
func (c *Cluster) CompletedInstances() uint64 { return c.completedInstances }

// Abandoned returns the lifetime count of in-flight instances discarded by
// Clear. Conservation reads:
// submitted == completed + in-flight + dropped + abandoned.
func (c *Cluster) Abandoned() uint64 { return c.abandoned }

// AdvanceTo runs the emulation until virtual time t.
func (c *Cluster) AdvanceTo(t sim.Time) { c.engine.RunUntil(t) }

// DrainCompletions returns the workflow completions recorded since the last
// call (nil when there were none) and hands the slice to the caller. The
// next window's buffer starts at the drained length, so a steady load
// appends without growing it.
func (c *Cluster) DrainCompletions() []Completion {
	out := c.completions
	if len(out) == 0 {
		return nil
	}
	c.completions = make([]Completion, 0, len(out))
	return out
}

// Counters is a snapshot of the cluster's cumulative per-microservice
// statistics; subtracting two snapshots yields per-window rates for the
// model-free baselines (DRS needs arrival and service rates, MONAD needs
// throughput).
type Counters struct {
	// Arrivals counts task requests enqueued per microservice.
	Arrivals []uint64
	// Completions counts task requests finished per microservice.
	Completions []uint64
	// BusySeconds accumulates consumer-busy time per microservice.
	BusySeconds []float64
	// ServiceSum and ServiceCount accumulate realised service durations.
	ServiceSum   []float64
	ServiceCount []uint64
}

// Snapshot returns the current cumulative counters in fresh slices.
func (c *Cluster) Snapshot() Counters {
	var s Counters
	c.SnapshotInto(&s)
	return s
}

// SnapshotInto fills s with the current cumulative counters, reusing its
// slices where they are large enough.
func (c *Cluster) SnapshotInto(s *Counters) {
	n := len(c.services)
	s.Arrivals = resize(s.Arrivals, n)
	s.Completions = resize(s.Completions, n)
	s.BusySeconds = resize(s.BusySeconds, n)
	s.ServiceSum = resize(s.ServiceSum, n)
	s.ServiceCount = resize(s.ServiceCount, n)
	for j, svc := range c.services {
		c.touchBusy(svc)
		s.Arrivals[j] = svc.arrivals
		s.Completions[j] = svc.completions
		s.BusySeconds[j] = svc.busyIntegral
		s.ServiceSum[j] = svc.serviceSum
		s.ServiceCount[j] = svc.serviceCount
	}
}

// resize returns v with length n, reusing its array when it is large
// enough. Entries are left for the caller to overwrite.
func resize[T any](v []T, n int) []T {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]T, n)
}

// Clear empties every queue and abandons all in-flight work, implementing
// the instantaneous form of the paper's environment "reset" (§VI-A3:
// "provision sufficient consumers of each microservice to reduce WIP close
// to 0"). Consumer pools and cumulative counters are preserved.
func (c *Cluster) Clear() {
	// Instances discarded here are accounted as abandoned so the
	// conservation invariant holds across resets. Emptying the token lists
	// turns every pending start and completion into a no-op.
	c.abandoned += uint64(c.inFlight)
	for _, svc := range c.services {
		c.touchBusy(svc)
		svc.queue.clear()
		svc.busy = 0
		svc.pendingStarts = svc.pendingStarts[:0]
		svc.inService.clear()
	}
	c.inFlight = 0
	c.completions = nil
}

// TotalWIP returns the summed work-in-progress across microservices.
func (c *Cluster) TotalWIP() float64 {
	var total float64
	for _, svc := range c.services {
		total += float64(svc.queue.len() + svc.busy)
	}
	return total
}
