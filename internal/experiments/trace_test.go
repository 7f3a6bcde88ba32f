package experiments

import (
	"bytes"
	"log/slog"
	"runtime"
	"strings"
	"testing"

	"miras/internal/obs"
	"miras/internal/parallel"
)

// TestTrainingSpanTraceByteIdentical pins the tracing determinism
// guarantee: a seeded training run in sim-time mode emits a byte-identical
// span trace every run, at any GOMAXPROCS. Wall-clock fields are stripped
// and span ids are allocated sequentially on the single training goroutine,
// so nothing in the trace depends on scheduling or real time.
func TestTrainingSpanTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full training runs are slow; skipped in -short")
	}
	run := func() string {
		var buf bytes.Buffer
		s := toySetup(t)
		s.Tracer = obs.NewTracer(obs.TracerConfig{
			Recorder: obs.NewRecorder(&buf, slog.LevelDebug),
			SimTime:  true,
		})
		if _, err := TrainingTrace(s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	a := run()
	b := run()
	prev := runtime.GOMAXPROCS(1)
	c := run()
	runtime.GOMAXPROCS(prev)

	if a != b {
		t.Fatal("seeded span traces differ between identical runs")
	}
	if a != c {
		t.Fatal("seeded span trace differs across GOMAXPROCS")
	}
	for _, name := range []string{
		`"msg":"span"`,
		`"name":"train.iteration"`,
		`"name":"ddpg.update"`,
		`"name":"train.collect"`,
		`"name":"train.fit_model"`,
		`"name":"train.improve_policy"`,
		`"name":"train.health_guard"`,
		`"name":"train.evaluate"`,
		`"name":"model.fit"`,
		`"name":"env.window"`,
		`"name":"cluster.scale"`,
	} {
		if !strings.Contains(a, name) {
			t.Fatalf("trace missing %s", name)
		}
	}
	if strings.Contains(a, "wall_start") || strings.Contains(a, "wall_dur") {
		t.Fatal("sim-time trace leaked wall-clock fields")
	}
	if n, spans := strings.Count(a, "\n"), strings.Count(a, `"msg":"span"`); n != spans {
		t.Fatalf("%d of %d trace lines are not spans", n-spans, n)
	}
}

// TestTracedFanOutsByteIdentical: a tracer is single-goroutine, so the
// pooled fan-out must not share one across workers. With four workers and
// four procs forced, a traced BudgetSweep writes the same trace bytes on
// every run (and -race sees no concurrent SetClock or SetParent).
func TestTracedFanOutsByteIdentical(t *testing.T) {
	t.Cleanup(func() { parallel.SetMaxWorkers(0) })
	parallel.SetMaxWorkers(4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func() string {
		var buf bytes.Buffer
		s := microSetup(t, "msd")
		s.CompareWindows = 4
		s.Tracer = obs.NewTracer(obs.TracerConfig{
			Recorder: obs.NewRecorder(&buf, slog.LevelDebug),
			SimTime:  true,
		})
		if _, err := BudgetSweep(s, []string{"heft", "monad"}, []int{6, 14}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("traced fan-outs wrote different traces on identical seeded runs")
	}
	if !strings.Contains(a, `"name":"env.window"`) || !strings.Contains(a, `"mean_delay":`) {
		t.Fatal("traced fan-outs emitted no window spans carrying the window's delay")
	}
}
