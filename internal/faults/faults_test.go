package faults

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"miras/internal/obs"
	"miras/internal/sim"
)

// fakeTarget records every hook call so tests can assert the injector's
// behaviour without a real cluster (the end-to-end coupling is covered by
// internal/cluster's fault tests).
type fakeTarget struct {
	services int
	calls    []string
	// failCrash makes CrashConsumer return an error (no live consumer).
	failCrash bool
}

func (f *fakeTarget) NumTasks() int { return f.services }

func (f *fakeTarget) CrashConsumer(j int, restart float64) error {
	f.calls = append(f.calls, fmt.Sprintf("crash(%d,%.3f)", j, restart))
	if f.failCrash {
		return fmt.Errorf("no live consumers")
	}
	return nil
}

func (f *fakeTarget) SetServiceSlowdown(j int, factor float64) {
	f.calls = append(f.calls, fmt.Sprintf("slowdown(%d,%g)", j, factor))
}

func (f *fakeTarget) SetStartupSpike(factor float64) {
	f.calls = append(f.calls, fmt.Sprintf("spike(%g)", factor))
}

func (f *fakeTarget) SetQueueDrop(j int, prob float64) {
	f.calls = append(f.calls, fmt.Sprintf("drop(%d,%g)", j, prob))
}

func newTestInjector(t *testing.T, seed int64, services int) (*Injector, *sim.Engine, *fakeTarget) {
	t.Helper()
	engine := sim.NewEngine()
	target := &fakeTarget{services: services}
	in, err := NewInjector(engine, sim.NewStreams(seed), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in, engine, target
}

func TestSpecValidate(t *testing.T) {
	bad := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{Kind: "meteor", Service: 0}},
		{"service out of range", Spec{Kind: Crash, Service: 3, MTTFSec: 1}},
		{"service below -1", Spec{Kind: Crash, Service: -2, MTTFSec: 1}},
		{"negative start", Spec{Kind: Crash, Service: 0, StartSec: -1, MTTFSec: 1}},
		{"negative duration", Spec{Kind: Crash, Service: 0, DurationSec: -1, MTTFSec: 1}},
		{"crash without mttf", Spec{Kind: Crash, Service: 0}},
		{"crash negative mttr", Spec{Kind: Crash, Service: 0, MTTFSec: 1, MTTRSec: -1}},
		{"slowdown without factor", Spec{Kind: Slowdown, Service: 0, DurationSec: 5}},
		{"slowdown open-ended", Spec{Kind: Slowdown, Service: 0, Factor: 2}},
		{"spike per-service", Spec{Kind: StartupSpike, Service: 0, Factor: 2, DurationSec: 5}},
		{"spike without factor", Spec{Kind: StartupSpike, Service: AllServices, DurationSec: 5}},
		{"drop prob over 1", Spec{Kind: QueueDrop, Service: 0, Factor: 1.5, DurationSec: 5}},
		{"drop prob zero", Spec{Kind: QueueDrop, Service: 0, DurationSec: 5}},
		{"drop open-ended", Spec{Kind: QueueDrop, Service: 0, Factor: 0.5}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(3); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	good := []Spec{
		{Kind: Crash, Service: 1, MTTFSec: 10},
		{Kind: Crash, Service: AllServices, MTTFSec: 10, MTTRSec: 5, DurationSec: 60},
		{Kind: Slowdown, Service: 0, Factor: 3, DurationSec: 30},
		{Kind: StartupSpike, Service: AllServices, Factor: 10, DurationSec: 30},
		{Kind: QueueDrop, Service: 2, Factor: 1, DurationSec: 30},
	}
	for i, sp := range good {
		if err := sp.Validate(3); err != nil {
			t.Errorf("good spec %d: %v", i, err)
		}
	}
	// Plan.Validate reports the failing spec index.
	p := Plan{Specs: []Spec{good[0], {Kind: "meteor"}}}
	if err := p.Validate(3); err == nil {
		t.Fatal("expected plan validation error")
	}
}

func TestScheduleRejectsBadPlan(t *testing.T) {
	in, _, target := newTestInjector(t, 1, 2)
	err := in.Schedule(Plan{Specs: []Spec{{Kind: Slowdown, Service: 5, Factor: 2, DurationSec: 1}}})
	if err == nil {
		t.Fatal("expected error")
	}
	if in.Scheduled() != 0 || len(target.calls) != 0 {
		t.Fatalf("bad plan must arm nothing: scheduled=%d calls=%v", in.Scheduled(), target.calls)
	}
}

func TestEpisodeLifecycle(t *testing.T) {
	in, engine, target := newTestInjector(t, 2, 2)
	plan := Plan{Specs: []Spec{
		{Kind: Slowdown, Service: 1, StartSec: 10, DurationSec: 20, Factor: 2.5},
	}}
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5)
	if len(target.calls) != 0 || len(in.Active()) != 0 {
		t.Fatalf("fault fired early: calls=%v", target.calls)
	}
	engine.RunUntil(15)
	if got, want := fmt.Sprint(target.calls), "[slowdown(1,2.5)]"; got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
	active := in.Active()
	if len(active) != 1 {
		t.Fatalf("active=%v, want 1 fault", active)
	}
	af := active[0]
	if af.Kind != Slowdown || af.Service != 1 || af.SinceSec != 10 || af.UntilSec != 30 || af.Factor != 2.5 {
		t.Fatalf("bad active fault: %+v", af)
	}
	engine.RunUntil(35)
	if got, want := fmt.Sprint(target.calls), "[slowdown(1,2.5) slowdown(1,1)]"; got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
	if len(in.Active()) != 0 {
		t.Fatalf("fault still active after end: %v", in.Active())
	}
	if in.Injected() != 1 {
		t.Fatalf("injected=%d, want 1", in.Injected())
	}
}

func TestAllServicesEpisodeExpands(t *testing.T) {
	in, engine, target := newTestInjector(t, 3, 3)
	err := in.Schedule(Plan{Specs: []Spec{
		{Kind: QueueDrop, Service: AllServices, StartSec: 0, DurationSec: 10, Factor: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5)
	want := "[drop(0,0.5) drop(1,0.5) drop(2,0.5)]"
	if got := fmt.Sprint(target.calls); got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
	engine.RunUntil(20)
	want = "[drop(0,0.5) drop(1,0.5) drop(2,0.5) drop(0,0) drop(1,0) drop(2,0)]"
	if got := fmt.Sprint(target.calls); got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
}

func TestStartupSpikeEpisode(t *testing.T) {
	in, engine, target := newTestInjector(t, 4, 2)
	err := in.Schedule(Plan{Specs: []Spec{
		{Kind: StartupSpike, Service: AllServices, StartSec: 1, DurationSec: 9, Factor: 12},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(20)
	if got, want := fmt.Sprint(target.calls), "[spike(12) spike(1)]"; got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
}

func TestCrashRenewalProcess(t *testing.T) {
	in, engine, target := newTestInjector(t, 5, 2)
	err := in.Schedule(Plan{Specs: []Spec{
		{Kind: Crash, Service: 0, StartSec: 0, DurationSec: 200, MTTFSec: 10, MTTRSec: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(1000)
	if len(target.calls) == 0 {
		t.Fatal("no crashes over 20 mean lifetimes")
	}
	if in.Injected() != uint64(len(target.calls)) {
		t.Fatalf("injected=%d crashes=%d, want one injected event per crash", in.Injected(), len(target.calls))
	}
	if len(in.Active()) != 0 {
		t.Fatalf("bounded crash process still active: %v", in.Active())
	}
	// MTTR > 0 must hand every crash an explicit non-negative restart delay.
	for _, call := range target.calls {
		var j int
		var restart float64
		if _, err := fmt.Sscanf(call, "crash(%d,%f)", &j, &restart); err != nil {
			t.Fatalf("unexpected call %q", call)
		}
		if j != 0 || restart < 0 {
			t.Fatalf("bad crash call %q", call)
		}
	}
}

func TestCrashWithoutMTTRUsesClusterDraw(t *testing.T) {
	in, engine, target := newTestInjector(t, 6, 2)
	err := in.Schedule(Plan{Specs: []Spec{
		{Kind: Crash, Service: 1, StartSec: 0, DurationSec: 50, MTTFSec: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(100)
	if len(target.calls) == 0 {
		t.Fatal("no crashes")
	}
	for _, call := range target.calls {
		if call != "crash(1,-1.000)" {
			t.Fatalf("MTTR=0 must pass restart=-1, got %q", call)
		}
	}
}

// TestFailedCrashDoesNotCountKill: a crash the target refuses is injected
// (an attempt) but its zero-length fault.crash span reports no kill; the
// target counts kills. The bounded episode's fault.episode span carries its
// planned end.
func TestFailedCrashDoesNotCountKill(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf, slog.LevelDebug), SimTime: true})
	engine := sim.NewEngine()
	target := &fakeTarget{services: 2, failCrash: true}
	in, err := NewInjector(engine, sim.NewStreams(7), target, tracer)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Schedule(Plan{Specs: []Spec{
		{Kind: Crash, Service: 0, StartSec: 0, DurationSec: 50, MTTFSec: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(100)
	if in.Injected() == 0 {
		t.Fatal("no crash attempts")
	}
	trace := buf.String()
	if got := strings.Count(trace, `"name":"fault.crash"`); uint64(got) != in.Injected() {
		t.Fatalf("%d fault.crash spans, want one per %d attempts:\n%s", got, in.Injected(), trace)
	}
	if got := strings.Count(trace, `"killed":false`); uint64(got) != in.Injected() {
		t.Fatalf("%d crash spans report no kill, want all %d attempts:\n%s", got, in.Injected(), trace)
	}
	if strings.Contains(trace, `"killed":true`) {
		t.Fatalf("a refused crash reported a kill:\n%s", trace)
	}
	if !strings.Contains(trace, `"name":"fault.episode"`) || !strings.Contains(trace, `"until":50`) {
		t.Fatalf("no fault.episode span with until=50:\n%s", trace)
	}
}

func TestEmptyPlanIsNoOp(t *testing.T) {
	in, engine, target := newTestInjector(t, 8, 2)
	if err := in.Schedule(Plan{}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(100)
	if in.Scheduled() != 0 || in.Injected() != 0 || len(target.calls) != 0 {
		t.Fatalf("empty plan had effects: scheduled=%d injected=%d calls=%v",
			in.Scheduled(), in.Injected(), target.calls)
	}
}

func TestPlansCompose(t *testing.T) {
	in, engine, target := newTestInjector(t, 9, 2)
	if err := in.Schedule(Plan{Specs: []Spec{{Kind: Slowdown, Service: 0, StartSec: 0, DurationSec: 10, Factor: 2}}}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5)
	// Second schedule is relative to now (t=5).
	if err := in.Schedule(Plan{Specs: []Spec{{Kind: Slowdown, Service: 1, StartSec: 1, DurationSec: 10, Factor: 3}}}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(7)
	if got, want := fmt.Sprint(target.calls), "[slowdown(0,2) slowdown(1,3)]"; got != want {
		t.Fatalf("calls=%s, want %s", got, want)
	}
	if in.Scheduled() != 2 {
		t.Fatalf("scheduled=%d, want 2", in.Scheduled())
	}
	active := in.Active()
	if len(active) != 2 || active[0].ID != 0 || active[1].ID != 1 {
		t.Fatalf("active=%v, want IDs [0 1]", active)
	}
	if active[1].SinceSec != 6 || active[1].UntilSec != 16 {
		t.Fatalf("second fault window [%g, %g], want [6, 16]", active[1].SinceSec, active[1].UntilSec)
	}
}

// TestInjectorDeterminism drives the same plan twice from equal seeds and
// requires byte-identical traces (fault.episode and fault.crash spans) and
// identical target call logs.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (string, string) {
		var buf bytes.Buffer
		tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf, slog.LevelDebug), SimTime: true})
		engine := sim.NewEngine()
		target := &fakeTarget{services: 3}
		in, err := NewInjector(engine, sim.NewStreams(42), target, tracer)
		if err != nil {
			t.Fatal(err)
		}
		plan := Plan{Specs: []Spec{
			{Kind: Crash, Service: AllServices, StartSec: 5, DurationSec: 300, MTTFSec: 20, MTTRSec: 8},
			{Kind: Slowdown, Service: 1, StartSec: 30, DurationSec: 60, Factor: 4},
			{Kind: StartupSpike, Service: AllServices, StartSec: 50, DurationSec: 40, Factor: 10},
			{Kind: QueueDrop, Service: 2, StartSec: 100, DurationSec: 50, Factor: 0.3},
		}}
		if err := in.Schedule(plan); err != nil {
			t.Fatal(err)
		}
		engine.RunUntil(500)
		return buf.String(), fmt.Sprint(target.calls)
	}
	trace1, calls1 := run()
	trace2, calls2 := run()
	if trace1 != trace2 {
		t.Fatal("traces differ between identical seeded runs")
	}
	if calls1 != calls2 {
		t.Fatalf("target call logs differ:\n%s\n%s", calls1, calls2)
	}
	if len(trace1) == 0 {
		t.Fatal("trace captured nothing")
	}
}

// TestOpenEndedEpisodeSpan: a fault with no end never deactivates, so its
// fault.episode span is a zero-length marker at activation carrying until=0
// rather than a span that is never written.
func TestOpenEndedEpisodeSpan(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf, slog.LevelInfo), SimTime: true})
	engine := sim.NewEngine()
	in, err := NewInjector(engine, sim.NewStreams(3), &fakeTarget{services: 1}, tracer)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Schedule(Plan{Specs: []Spec{{Kind: Crash, Service: 0, StartSec: 2, MTTFSec: 1e9}}}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5)
	trace := buf.String()
	if !strings.Contains(trace, `"name":"fault.episode"`) ||
		!strings.Contains(trace, `"t0":2,"t1":2,"fault":0,"kind":"crash"`) || !strings.Contains(trace, `"until":0`) {
		t.Fatalf("no zero-length fault.episode marker at t=2 with until=0:\n%s", trace)
	}
}
