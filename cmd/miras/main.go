// Command miras is the front door to the reproduction: one subcommand per
// figure of the paper's evaluation (Figs. 5–8), ablation run and extension
// study, plus the serving tier — serve (the HTTP gym API, alone or as one
// shard of a fleet), route (the fleet's router) and load (a seeded trace
// replayed against either). `miras` alone lists them. Every experiment
// subcommand shares one flag block (see common), serve and route share
// another (see listener), and `miras <subcommand> -h` lists a subcommand's
// flags. Usage errors exit 2, run errors exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"miras/internal/experiments"
	"miras/internal/obs"
	"miras/internal/trace"
)

// command is one subcommand. flags declares its flags on fs and returns
// the run, which writes its report to w.
type command struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"modeleval", "Fig. 5: accuracy of the learnt environment model", experiment("msd", "quick", modeleval)},
	{"train", "Fig. 6: the Algorithm 2 training loop, with checkpoint/resume", experiment("msd", "quick", train)},
	{"compare", "Figs. 7/8: burst response of miras, stream, heft, monad and rl", experiment("msd", "quick", compare)},
	{"figures", "Figs. 5-8, extensions and ablations in one run, plus summary.md", experiment("both", "quick", figures)},
	{"sweep", "extension studies: budget, dynamic, chaos, multiseed", experiment("msd", "medium", sweep)},
	{"chaos", "the Figs. 7/8 comparison under each seeded fault regime", experiment("msd", "quick", chaos)},
	{"replay", "replay a policy saved by train against a burst", experiment("msd", "medium", replay)},
	{"selfcheck", "determinism digests: fault-free, then every fault regime", experiment("msd", "quick", selfcheck)},
	{"dot", "export an ensemble's workflow DAGs as Graphviz DOT", experiment("msd", "", dot)},
	{"serve", "the HTTP gym API: one process, or one shard of a fleet", serve},
	{"route", "the consistent-hash router in front of a fleet of serve shards", route},
	{"load", "replay a seeded trace against serve or route; print a JSON summary", load},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || slices.Contains([]string{"help", "-h", "-help", "--help"}, args[0]) {
		usage(stderr)
		return 2
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	if i < 0 {
		fmt.Fprintf(stderr, "miras: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	cmd := &commands[i]
	fs, body := cmd.flagSet(stderr)
	if err := fs.Parse(args[1:]); err != nil { // -h included, as with the go tool
		return 2
	}
	if err := body(stdout); err != nil {
		fmt.Fprintf(stderr, "miras %s: %v\n", cmd.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// flagSet declares cmd's flags on a fresh FlagSet.
func (cmd *command) flagSet(stderr io.Writer) (*flag.FlagSet, func(io.Writer) error) {
	fs := flag.NewFlagSet("miras "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: miras %s [flags]\n%s\n\n", cmd.name, cmd.summary)
		fs.PrintDefaults()
	}
	return fs, cmd.flags(fs)
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: miras <subcommand> [flags]  (miras <subcommand> -h lists its flags)\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
}

// usageError is a refusal of a flag combination, found before the run opens
// a file or starts a goroutine; it exits 2 like a flag parse error.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// body runs an experiment subcommand once its flags are parsed.
type body func(c *common, w io.Writer) error

// experiment gives an experiment subcommand the shared flag block, with
// ensemble and scale as its defaults (dot, which runs no experiment, has no
// scale and only -ensemble), and runs its body inside the trace sink.
func experiment(ensemble, scale string, flags func(fs *flag.FlagSet) body) func(*flag.FlagSet) func(io.Writer) error {
	return func(fs *flag.FlagSet) func(io.Writer) error {
		c := &common{}
		c.declare(fs, ensemble, scale)
		b := flags(fs)
		return func(w io.Writer) error {
			if err := c.openTrace(); err != nil {
				return err
			}
			err := b(c, w)
			if cerr := c.rec.Close(); err == nil { // flushes the trace
				err = cerr
			}
			return err
		}
	}
}

// common is the flag block every experiment subcommand shares; the count
// overrides keep the preset at 0. It owns the only scale→preset mapping and
// the run's trace sink.
type common struct {
	ensemble, scale, out, traceOut, logLevel string
	seed                                     int64
	iterations, stepsPerIter, policyEpisodes count

	rec    *obs.Recorder
	tracer *obs.Tracer
}

func (c *common) declare(fs *flag.FlagSet, ensemble, scale string) {
	fs.StringVar(&c.ensemble, "ensemble", ensemble, "workflow ensemble: msd or ligo (figures also takes both, dot also toy)")
	if scale == "" {
		return
	}
	fs.StringVar(&c.scale, "scale", scale, "experiment scale: quick, medium, or paper")
	fs.Int64Var(&c.seed, "seed", 0, "override the preset's seed (0 keeps it)")
	fs.StringVar(&c.out, "out", "results", "output directory for CSV files")
	fs.StringVar(&c.traceOut, "trace-out", "", "optional JSONL trace file for structured telemetry and sim-time spans")
	fs.StringVar(&c.logLevel, "log-level", "info", "trace verbosity: debug or info (debug adds per-epoch and per-update events)")
	fs.Var(&c.iterations, "iterations", "override Algorithm 2 outer iterations with `n` (0 keeps the preset)")
	fs.Var(&c.stepsPerIter, "steps-per-iter", "override real interactions per iteration with `n` (0 keeps the preset)")
	fs.Var(&c.policyEpisodes, "policy-episodes", "override synthetic policy episodes per iteration with `n` (0 keeps the preset)")
}

// openTrace opens the -trace-out sink, if any. Spans ride the same JSONL
// file as events, in sim-time mode so seeded traces are byte-identical
// across runs.
func (c *common) openTrace() (err error) {
	if c.scale != "" { // dot declares no trace flags
		c.rec, err = obs.FileRecorder(c.traceOut, c.logLevel)
	}
	if c.rec != nil {
		c.tracer = obs.NewTracer(obs.TracerConfig{Recorder: c.rec, SimTime: true, Debug: c.logLevel == "debug"})
	}
	return err
}

// presets maps -scale to its experiment preset.
var presets = map[string]func(ensemble string) (experiments.Setup, error){
	"quick": experiments.QuickSetup, "medium": experiments.MediumSetup, "paper": experiments.PaperSetup,
}

// setup returns ensemble's preset at -scale with the overrides applied and
// the trace sink wired in.
func (c *common) setup(ensemble string) (experiments.Setup, error) {
	preset, ok := presets[c.scale]
	if !ok {
		return experiments.Setup{}, fmt.Errorf("unknown scale %q (quick, medium, or paper)", c.scale)
	}
	s, err := preset(ensemble)
	if err != nil {
		return s, err
	}
	if c.seed != 0 {
		s.Seed = c.seed
	}
	if c.iterations > 0 {
		s.Iterations = int(c.iterations)
	}
	if c.stepsPerIter > 0 {
		s.StepsPerIteration = int(c.stepsPerIter)
	}
	if c.policyEpisodes > 0 {
		s.PolicyEpisodes = int(c.policyEpisodes)
	}
	s.Recorder, s.Tracer = c.rec, c.tracer
	return s, nil
}

// show renders each table to w, then saves them.
func (c *common) show(w io.Writer, tables ...*trace.Table) error {
	for _, t := range tables {
		if err := t.Render(w, 10); err != nil {
			return err
		}
	}
	return c.save(w, tables...)
}

// save writes each table as <out>/<title>.csv.
func (c *common) save(w io.Writer, tables ...*trace.Table) error {
	for _, t := range tables {
		path := filepath.Join(c.out, t.Title+".csv")
		if err := t.SaveCSV(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// count is a non-negative integer flag; 0 keeps the preset or default.
type count int

func (n *count) String() string { return strconv.Itoa(int(*n)) }

func (n *count) Set(v string) error {
	i, err := strconv.Atoi(v)
	if err == nil && i < 0 {
		err = errors.New("must be >= 0")
	}
	*n = count(i) // on error the parse fails and the value is never read
	return err
}

// parseList converts each item of a comma-separated flag value; blank
// items are skipped, so a blank value yields nil.
func parseList[T any](spec string, conv func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := conv(p)
		if err != nil {
			return nil, fmt.Errorf("bad list item %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
