package faults

import (
	"testing"

	"miras/internal/invariant"
	"miras/internal/sim"
)

// FuzzFaultPlanValidate throws arbitrary spec fields at Validate and then
// holds it to its contract: any plan Validate accepts must arm and run on a
// real engine without panicking, without NaN event times, and without
// tripping the activation-window invariant. Structured float args let the
// fuzzer reach NaN/Inf and denormals directly rather than hoping for the
// right byte patterns.
func FuzzFaultPlanValidate(f *testing.F) {
	f.Add("crash", 0, 10.0, 100.0, 0.0, 30.0, 5.0)
	f.Add("crash", -1, 0.0, 0.0, 0.0, 1.0, 0.0)
	f.Add("slowdown", 1, 5.0, 50.0, 3.0, 0.0, 0.0)
	f.Add("startup_spike", -1, 0.0, 20.0, 10.0, 0.0, 0.0)
	f.Add("queue_drop", 2, 1.0, 10.0, 0.5, 0.0, 0.0)
	f.Add("meteor", 0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add("crash", 0, 0.0, 0.0, 0.0, 1e-300, 1e300)
	f.Add("slowdown", 0, 1e308, 1e308, 1e-308, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, kind string, service int, start, dur, factor, mttf, mttr float64) {
		sp := Spec{
			Kind:        Kind(kind),
			Service:     service,
			StartSec:    start,
			DurationSec: dur,
			Factor:      factor,
			MTTFSec:     mttf,
			MTTRSec:     mttr,
		}
		plan := Plan{Specs: []Spec{sp}}
		if err := plan.Validate(3); err != nil {
			return // rejected: fine, as long as rejection didn't panic
		}

		// The injector's own invariant (activation windows) runs live; its
		// default handler panics, which the fuzzer reports as a crash.
		wasOn := invariant.Enabled()
		invariant.Enable(true)
		defer invariant.Enable(wasOn)

		engine := sim.NewEngine()
		target := &fakeTarget{services: 3}
		in, err := NewInjector(engine, sim.NewStreams(1), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Schedule(plan); err != nil {
			t.Fatalf("plan passed Validate but Schedule rejected it: %v", err)
		}
		// Bounded drain: open-ended crash processes schedule forever, so cap
		// by event count rather than by horizon.
		for i := 0; i < 2000 && engine.Step(); i++ {
		}
		if err := in.CheckWindows(engine.Now()); err != nil {
			t.Fatalf("armed plan violated its activation windows: %v", err)
		}
	})
}
