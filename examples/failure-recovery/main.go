// failure-recovery: kill consumers mid-burst and watch the system recover —
// the acknowledgement mechanism re-delivers in-flight requests (nothing is
// lost) and the replication controller replaces dead containers, while an
// HPA-style autoscaler keeps allocating around the chaos.
//
//	go run ./examples/failure-recovery
package main

import (
	"fmt"
	"io"
	"os"

	"miras/internal/baselines"
	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failure-recovery:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	ensemble := workflow.NewMSD()
	e, err := env.New(env.Config{
		Cluster: cluster.Config{Ensemble: ensemble},
		Seed:    99,
		Rates:   []float64{0.05, 0.05, 0.05},
		Budget:  14,
	})
	if err != nil {
		return err
	}
	if err := e.InjectBurst([]int{80, 50, 80}); err != nil {
		return err
	}
	c, engine, gen := e.Cluster(), e.Engine(), e.Generator()

	// Chaos: kill one random live consumer every 45 virtual seconds.
	chaosRNG := e.Streams().Stream("example/chaos")
	var chaos func()
	chaos = func() {
		alive := c.Consumers()
		for attempt := 0; attempt < 4; attempt++ {
			j := chaosRNG.Intn(len(alive))
			if alive[j] > 0 {
				if err := c.CrashConsumer(j, -1); err == nil {
					break
				}
			}
		}
		engine.Schedule(45, chaos)
	}
	engine.Schedule(45, chaos)

	ctrl := baselines.NewHPA(e.Budget())
	submittedBefore := gen.Submitted()
	results, err := env.Run(e, ctrl, 25)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "window  consumers         ΣWIP   done  failures  redeliveries")
	completed := 0
	for i, r := range results {
		var wip float64
		for _, w := range r.State {
			wip += w
		}
		completed += len(r.Stats.Completions)
		fmt.Fprintf(w, "%6d  %-17s %-6.0f %-5d %-9d %d\n",
			i, fmt.Sprint(r.Stats.Consumers), wip, len(r.Stats.Completions),
			c.Failures(), c.Redeliveries())
	}
	var submitted uint64
	for i, v := range gen.Submitted() {
		submitted += v
		_ = i
	}
	var before uint64
	for _, v := range submittedBefore {
		before += v
	}
	fmt.Fprintf(w, "\n%d consumers killed, %d requests re-delivered — %d workflows completed, %d still in flight, 0 lost\n",
		c.Failures(), c.Redeliveries(), completed, c.InFlight())
	if uint64(completed+c.InFlight()) != submitted {
		return fmt.Errorf("CONSERVATION VIOLATED: %d completed + %d in flight != %d submitted",
			completed, c.InFlight(), submitted)
	}
	fmt.Fprintln(w, "conservation check passed: completed + in-flight == submitted ✓")
	return nil
}
