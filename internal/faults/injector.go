package faults

import (
	"fmt"
	"math"
	"sort"

	"miras/internal/invariant"
	"miras/internal/obs"
	"miras/internal/sim"
)

// Target is the set of failure hooks the injector drives. *cluster.Cluster
// implements it; the indirection keeps this package free of a cluster
// dependency so cluster can in turn accept a Plan at construction.
type Target interface {
	// NumTasks returns the number of microservices (task types).
	NumTasks() int
	// CrashConsumer kills one live consumer of the service and counts the
	// kill. restartDelaySec overrides the replacement container's start-up
	// delay; a negative value keeps the normal draw. It returns an error
	// when the service has no live consumer to kill (the crash is then a
	// no-op).
	CrashConsumer(service int, restartDelaySec float64) error
	// SetServiceSlowdown sets the service-time multiplier for the service
	// (1 = healthy).
	SetServiceSlowdown(service int, factor float64)
	// SetStartupSpike sets the cluster-wide start-up delay multiplier
	// (1 = healthy).
	SetStartupSpike(factor float64)
	// SetQueueDrop sets the service's per-request drop probability
	// (0 = healthy).
	SetQueueDrop(service int, prob float64)
}

// Injector arms fault plans on a discrete-event engine and tracks what is
// live. It is single-threaded, like the engine beneath it; callers that
// share it across goroutines (the HTTP server) must serialise access the
// same way they serialise engine access.
type Injector struct {
	engine  *sim.Engine
	streams *sim.Streams
	target  Target
	tracer  *obs.Tracer
	// spans holds the open "fault.episode" span per active fault id; nil
	// entries never occur (a nil tracer yields nil spans, which are not
	// stored).
	spans map[int]*obs.Span

	nextID    int
	active    map[int]*ActiveFault
	scheduled int
	injected  uint64
}

// NewInjector returns an injector with no armed faults. All randomness is
// drawn from streams named "faults/<id>/…", so injectors built from equal
// seeds behave identically and never perturb other components' streams.
// tracer, when non-nil, gets one "fault.episode" span per fault window
// (opened at activation, closed at deactivation, carrying the spec's kind,
// service, factor and planned end "until", 0 for open-ended) and one
// zero-length "fault.crash" span per crash attempt; nil disables both at
// zero cost.
func NewInjector(engine *sim.Engine, streams *sim.Streams, target Target, tracer *obs.Tracer) (*Injector, error) {
	if engine == nil || streams == nil || target == nil {
		return nil, fmt.Errorf("faults: engine, streams, and target are required")
	}
	return &Injector{
		engine:  engine,
		streams: streams,
		target:  target,
		tracer:  tracer,
		active:  make(map[int]*ActiveFault),
	}, nil
}

// Schedule validates plan and arms every spec relative to the current
// virtual time. Scheduling an empty plan is a no-op. Plans compose: later
// calls add to whatever is already armed.
func (in *Injector) Schedule(plan Plan) error {
	if err := plan.Validate(in.target.NumTasks()); err != nil {
		return err
	}
	for _, sp := range plan.Specs {
		id := in.nextID
		in.nextID++
		in.scheduled++
		switch sp.Kind {
		case Crash:
			in.armCrash(id, sp)
		default:
			in.armEpisode(id, sp)
		}
	}
	return nil
}

// Scheduled returns the number of specs armed over the injector's lifetime.
func (in *Injector) Scheduled() int { return in.scheduled }

// Injected returns the number of fault events injected so far (episode
// activations plus crash attempts, whether or not they killed a consumer;
// the target counts the kills).
func (in *Injector) Injected() uint64 { return in.injected }

// CheckWindows verifies every live fault sits inside its declared activation
// window at virtual time now: it became active no later than now and, for
// bounded faults, its end has not passed. A violation means an episode-end
// event was lost or fired out of order — the injector would then keep
// degrading the cluster beyond the plan, silently corrupting every
// downstream reward. The cluster registers this with its invariant set.
func (in *Injector) CheckWindows(now float64) error {
	for _, f := range in.active {
		if f.SinceSec > now {
			return fmt.Errorf("fault %d (%s) active at %g before its start %g",
				f.ID, f.Kind, now, f.SinceSec)
		}
		if f.UntilSec != 0 && now > f.UntilSec {
			return fmt.Errorf("fault %d (%s) still active at %g past its end %g",
				f.ID, f.Kind, now, f.UntilSec)
		}
	}
	return nil
}

// Active returns the currently live faults, ordered by arming sequence.
func (in *Injector) Active() []ActiveFault {
	out := make([]ActiveFault, 0, len(in.active))
	for _, f := range in.active {
		out = append(out, *f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// window computes the absolute end of the spec's activation window: end is
// +Inf for open-ended specs, and wireEnd is its 0-means-open wire form.
func (in *Injector) window(sp Spec) (end, wireEnd float64) {
	end = math.Inf(1)
	if sp.DurationSec > 0 {
		end = in.engine.Now() + sp.StartSec + sp.DurationSec
		wireEnd = end
	}
	return end, wireEnd
}

// armCrash schedules a crash/restart renewal process: from the episode
// start, consumers of the target service die with Exponential(MTTF) gaps;
// each death hands the replacement container an Exponential(MTTR) start-up
// delay (or the cluster default when MTTR is 0).
func (in *Injector) armCrash(id int, sp Spec) {
	rng := in.streams.Stream(fmt.Sprintf("faults/%d/crash", id))
	end, wireEnd := in.window(sp)

	var fire func()
	fire = func() {
		if invariant.Enabled() {
			invariant.Checkf("faults/activation-window", in.engine.Now() <= end,
				"crash process %d fired at %g past its episode end %g", id, in.engine.Now(), end)
		}
		j := sp.Service
		if j == AllServices {
			j = rng.Intn(in.target.NumTasks())
		}
		restart := -1.0
		if sp.MTTRSec > 0 {
			restart = sim.Exponential(rng, sp.MTTRSec)
		}
		err := in.target.CrashConsumer(j, restart)
		in.injected++
		now := in.engine.Now()
		in.tracer.Start("fault.crash").T0(now).
			Int("fault", id).
			Int("service", j).
			F64("restart_delay", restart).
			Bool("killed", err == nil).
			EndT(now)
		in.reschedule(id, fire, sim.Exponential(rng, sp.MTTFSec), end)
	}
	in.engine.Schedule(sp.StartSec, func() {
		in.activate(id, sp, wireEnd)
		in.reschedule(id, fire, sim.Exponential(rng, sp.MTTFSec), end)
	})
}

// reschedule arms the next crash after gap, or ends the process when the
// next event would fall outside the episode: open-ended processes stay in
// Active forever, bounded ones are deactivated when the next crash would
// land past the end.
func (in *Injector) reschedule(id int, fire func(), gap, end float64) {
	if in.engine.Now()+gap > end {
		in.deactivate(id)
		return
	}
	in.engine.Schedule(gap, fire)
}

// armEpisode schedules a begin/end pair applying and reverting one episode
// effect. Overlapping episodes of the same kind on the same service are not
// composed: the end of any of them reverts the service to healthy.
func (in *Injector) armEpisode(id int, sp Spec) {
	_, wireEnd := in.window(sp)
	in.engine.Schedule(sp.StartSec, func() {
		in.apply(sp, true)
		in.activate(id, sp, wireEnd)
		in.injected++
	})
	if sp.DurationSec > 0 {
		in.engine.Schedule(sp.StartSec+sp.DurationSec, func() {
			in.apply(sp, false)
			in.deactivate(id)
		})
	}
}

// apply sets (on) or reverts (off) an episode's effect on the target.
func (in *Injector) apply(sp Spec, on bool) {
	services := []int{sp.Service}
	if sp.Service == AllServices {
		services = services[:0]
		for j := 0; j < in.target.NumTasks(); j++ {
			services = append(services, j)
		}
	}
	switch sp.Kind {
	case Slowdown:
		f := sp.Factor
		if !on {
			f = 1
		}
		for _, j := range services {
			in.target.SetServiceSlowdown(j, f)
		}
	case StartupSpike:
		f := sp.Factor
		if !on {
			f = 1
		}
		in.target.SetStartupSpike(f)
	case QueueDrop:
		p := sp.Factor
		if !on {
			p = 0
		}
		for _, j := range services {
			in.target.SetQueueDrop(j, p)
		}
	}
}

func (in *Injector) activate(id int, sp Spec, untilSec float64) {
	in.active[id] = &ActiveFault{
		ID:       id,
		Kind:     sp.Kind,
		Service:  sp.Service,
		SinceSec: in.engine.Now(),
		UntilSec: untilSec,
		Factor:   sp.Factor,
	}
	span := in.tracer.Start("fault.episode").
		T0(in.engine.Now()).
		Int("fault", id).
		Str("kind", string(sp.Kind)).
		Int("service", sp.Service).
		F64("factor", sp.Factor).
		F64("until", untilSec)
	switch {
	case span == nil:
	case untilSec == 0:
		// An open-ended fault never deactivates: its span is a
		// zero-length marker at activation.
		span.EndT(in.engine.Now())
	default:
		if in.spans == nil {
			in.spans = make(map[int]*obs.Span)
		}
		in.spans[id] = span
	}
}

func (in *Injector) deactivate(id int) {
	if _, ok := in.active[id]; !ok {
		return
	}
	delete(in.active, id)
	if span, ok := in.spans[id]; ok {
		delete(in.spans, id)
		span.EndT(in.engine.Now())
	}
}
