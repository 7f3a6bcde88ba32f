package main

// End-to-end checks of the binary: the seeded pipelines' golden manifest,
// crash-safe training resume, and the serving tier — a fleet under load, a
// drain handed to another process, a shard SIGKILLed mid-trace, the
// operational endpoints. Pipelines that need no process of their own call run
// in this process; the rest re-execute the test binary, which TestMain turns
// into miras. Every check runs with runtime invariants live.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/invariant"
	"miras/internal/loadgen"
)

// childEnv marks a re-executed test binary: "miras" runs the arguments as
// miras does, "listener" does the same on the listening socket handed over
// as fd 3.
const childEnv = "MIRAS_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "":
		invariant.Enable(true)
		os.Exit(m.Run())
	case "listener":
		listen = func(string, string) (net.Listener, error) { return net.FileListener(os.NewFile(3, "listener")) }
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// child is one miras process started by start.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once err is set
	err    error         // Wait's result
	done   bool          // stop or killed already ran

	mu  sync.Mutex
	out bytes.Buffer // stdout and stderr
}

func (c *child) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

// String is the child's command line and output, for failure reports.
func (c *child) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("miras %s\n%s", strings.Join(c.cmd.Args[1:], " "), c.out.String())
}

// start runs `miras args...` in a child process with invariants live. ln, if
// not nil, becomes the child's listening socket (see TestMain). The child is
// stopped with SIGTERM when the test ends and must exit 0 (see stop).
func start(t *testing.T, ln net.Listener, args ...string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: exec.Command(exe, args...), exited: make(chan struct{})}
	mode := "miras"
	if ln != nil {
		f, err := ln.(*net.TCPListener).File()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		defer ln.Close() // the child holds its own copy
		c.cmd.ExtraFiles, mode = []*os.File{f}, "listener"
	}
	// A race-built child would sleep 1 s at exit by default.
	gorace := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	c.cmd.Env = append(os.Environ(), childEnv+"="+mode, "MIRAS_INVARIANTS=1", "GORACE="+gorace)
	c.cmd.Stdout, c.cmd.Stderr = c, c
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(func() { c.stop(t) })
	return c
}

var listening = regexp.MustCompile(`listening on (\S+)\n`)

// url waits for a serve or route child to announce its bound address and
// returns its base URL.
func (c *child) url(t *testing.T) string {
	t.Helper()
	var m []string
	poll(t, "listening line", func() bool {
		select {
		case <-c.exited:
			t.Fatalf("exit %v before listening:\n%s", c.err, c)
		default:
		}
		m = listening.FindStringSubmatch(c.String())
		return m != nil
	})
	return "http://" + m[1]
}

// wait waits for the child to exit; a hang is killed and fails the test.
func (c *child) wait(t *testing.T) {
	t.Helper()
	select {
	case <-c.exited:
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill() // fails only if it exited meanwhile
		<-c.exited
		t.Errorf("still running 30 s after its stop:\n%s", c)
	}
}

// stop sends SIGTERM and requires exit status 0: serve and route drain
// in-flight requests first and exit 1 if that outlasts -shutdown-timeout;
// train stops at the next iteration boundary.
func (c *child) stop(t *testing.T) {
	t.Helper()
	if c.done {
		return
	}
	c.done = true
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an early exit is reported below
	c.wait(t)
	if c.err != nil {
		t.Errorf("exit %v after SIGTERM, want 0:\n%s", c.err, c)
	}
}

// killed waits for a child that something else SIGKILLs.
func (c *child) killed(t *testing.T) {
	t.Helper()
	c.done = true
	c.wait(t)
	if ee, ok := c.err.(*exec.ExitError); !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Errorf("exit %v, want SIGKILL:\n%s", c.err, c)
	}
}

// runOK runs miras in this process, requires exit 0 and returns stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("miras %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

var client = &http.Client{Timeout: 30 * time.Second}

// do sends one request and returns the status and body.
func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// call is do for a request that must succeed.
func call(t *testing.T, method, url, body string) string {
	t.Helper()
	code, resp := do(t, method, url, body)
	if code/100 != 2 {
		t.Fatalf("%s %s: %d %s", method, url, code, resp)
	}
	return resp
}

// mustContain fails unless body contains every want.
func mustContain(t *testing.T, what, body string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("%s lacks %s:\n%s", what, w, body)
		}
	}
}

// poll calls ok every 10 ms until it holds, failing the test after 30 s.
func poll(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s after 30 s", what)
		}
	}
}

// fleet starts two serve shards that name each other in -members, with
// extra serve flags, and a route child over them with extra route flags. The
// test binds the shards' sockets itself, so the member URLs are known before
// either shard starts.
func fleet(t *testing.T, shardFlags, routeFlags []string) (shards [2]*child, urls [2]string, router string) {
	t.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	peers := urls[0] + "," + urls[1]
	for i, ln := range lns {
		args := []string{"serve", "-addr", ln.Addr().String(), "-max-sessions", "256", "-self", urls[i], "-members", peers}
		shards[i] = start(t, ln, append(args, shardFlags...)...)
		if got := shards[i].url(t); got != urls[i] {
			t.Fatalf("shard %d listens on %s, want %s", i+1, got, urls[i])
		}
	}
	router = start(t, nil, append([]string{"route", "-addr", "127.0.0.1:0", "-members", peers}, routeFlags...)...).url(t)
	mustContain(t, "router /healthz", call(t, "GET", router+"/healthz", ""), `"ok":true`) // every shard answered ok
	return shards, urls, router
}

// held lists the sessions a serve process holds.
func held(t *testing.T, base string) []httpapi.SessionSummary {
	t.Helper()
	var list httpapi.ListResponse
	if err := json.Unmarshal([]byte(call(t, "GET", base+"/v1/sessions", "")), &list); err != nil {
		t.Fatal(err)
	}
	return list.Sessions
}

const createToy = `{"ensemble":"toy","budget":6,"window_sec":10,"seed":%d}`

// TestServeRefusesOccupiedPort: serve binds before it announces, so a port
// another socket holds fails the run (exit 1) without a "listening on" line.
func TestServeRefusesOccupiedPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"serve", "-addr", ln.Addr().String()}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "listening on") {
		t.Errorf("announced an address it does not hold:\n%s", stdout.String())
	}
	mustContain(t, "stderr", stderr.String(), "address already in use")
}

// TestServeObservability scrapes every operational endpoint of one serve
// process: Prometheus /metrics with process metrics, the span ring behind
// /v1/debug/traces, the sampled /v1/debug/timeseries and /debug/dash.
func TestServeObservability(t *testing.T) {
	base := start(t, nil, "serve", "-addr", "127.0.0.1:0", "-sample-interval", "200ms").url(t)
	mustContain(t, "/healthz", call(t, "GET", base+"/healthz", ""), "ok")
	metrics := call(t, "GET", base+"/metrics", "")
	for _, re := range []string{`(?m)^process_goroutines`, `(?m)^# TYPE`} {
		if !regexp.MustCompile(re).MatchString(metrics) {
			t.Errorf("/metrics does not match %s:\n%s", re, metrics)
		}
	}
	mustContain(t, "create", call(t, "POST", base+"/v1/sessions", `{"ensemble":"toy","budget":6,"window_sec":10}`), `"id":"s1"`)
	mustContain(t, "step", call(t, "POST", base+"/v1/sessions/s1/step", `{"allocation":[4,2]}`), `"reward"`)
	mustContain(t, "/v1/debug/traces", call(t, "GET", base+"/v1/debug/traces", ""),
		`"name":"http.step"`, `"name":"session.step"`)
	var series string
	poll(t, "timeseries sample with request counters", func() bool {
		series = call(t, "GET", base+"/v1/debug/timeseries", "")
		return strings.Contains(series, "miras_http_requests_total")
	})
	mustContain(t, "/v1/debug/timeseries", series, `"samples":`)
	mustContain(t, "/debug/dash", call(t, "GET", base+"/debug/dash", ""), "<svg")
}

// TestFleetLoad replays a seeded 2000-request Zipf trace through a router
// over two shard processes with zero tolerated 5xx. The merged /metrics must
// carry both shards' request counters and never repeat the shard label the
// router injects.
func TestFleetLoad(t *testing.T) {
	_, urls, router := fleet(t, nil, nil)
	var res loadgen.Result
	summary := runOK(t, "load", "-target", router, "-requests", "2000", "-sessions", "32", "-concurrency", "16",
		"-skew", "zipf", "-seed", "7", "-fail-on-5xx")
	if err := json.Unmarshal(summary, &res); err != nil {
		t.Fatal(err)
	}
	if res.Error5xx != 0 || res.ThroughputRPS <= 0 {
		t.Errorf("%d 5xx, throughput %g rps; want 0 and > 0", res.Error5xx, res.ThroughputRPS)
	}
	metrics := call(t, "GET", router+"/metrics", "")
	for _, u := range urls {
		if !regexp.MustCompile(`miras_http_requests_total\{.*shard="` + regexp.QuoteMeta(u) + `"`).MatchString(metrics) {
			t.Errorf("merged /metrics has no request counters from %s", u)
		}
	}
	if dup := regexp.MustCompile(`(?m)^[^#\n].*shard="[^"]*".*shard=".*$`).FindAllString(metrics, 5); dup != nil {
		t.Errorf("merged /metrics repeats the shard label:\n%s", strings.Join(dup, "\n"))
	}
}

// TestDrainRehydrate drains three stepped sessions from one process into a
// spill directory and rehydrates them on another: the snapshots must be
// byte-identical, the drained process must answer 410, and a rehydrated
// session must keep stepping.
func TestDrainRehydrate(t *testing.T) {
	spill := t.TempDir()
	a := start(t, nil, "serve", "-addr", "127.0.0.1:0", "-spill-dir", spill).url(t)
	var pre []string
	for i := 1; i <= 3; i++ {
		call(t, "POST", a+"/v1/sessions", fmt.Sprintf(createToy, i))
		id := a + "/v1/sessions/s" + strconv.Itoa(i)
		call(t, "POST", id+"/step", `{"allocation":[4,2]}`)
		call(t, "POST", id+"/step", `{"allocation":[3,3]}`)
		pre = append(pre, call(t, "GET", id+"/snapshot", ""))
	}
	mustContain(t, "drain", call(t, "POST", a+"/v1/admin/drain", "{}"), `"s1"`)
	if code, body := do(t, "GET", a+"/v1/sessions/s1", ""); code != http.StatusGone || !strings.Contains(body, "session_expired") {
		t.Errorf("s1 after drain: %d %s, want 410 session_expired", code, body)
	}

	b := start(t, nil, "serve", "-addr", "127.0.0.1:0", "-spill-dir", spill).url(t)
	mustContain(t, "rehydrate", call(t, "POST", b+"/v1/admin/rehydrate", "{}"), `"s1"`)
	for i, want := range pre {
		if got := call(t, "GET", fmt.Sprintf("%s/v1/sessions/s%d/snapshot", b, i+1), ""); got != want {
			t.Errorf("s%d snapshot changed across drain and rehydrate:\nbefore %s\nafter  %s", i+1, want, got)
		}
	}
	mustContain(t, "step after rehydrate", call(t, "POST", b+"/v1/sessions/s1/step", `{"allocation":[4,2]}`), `"reward"`)
}

// TestFleetFailover SIGKILLs one of two shards (shared spill directory, 25 ms
// snapshot sync) 40 % into a seeded 2000-request Zipf trace behind
// `route -failover`. The replay must stay inside a 1 % error budget, the dead
// shard's sessions must keep serving and stepping through the survivor, and
// the router must show the retries, the failover and the new serving home.
func TestFleetFailover(t *testing.T) {
	spill := t.TempDir()
	shards, urls, router := fleet(t, []string{"-spill-dir", spill, "-spill-sync-interval", "25ms"}, []string{"-failover"})
	for i := 1; i <= 8; i++ {
		call(t, "POST", router+"/v1/sessions", fmt.Sprintf(createToy, i))
	}
	// The ring hashes the shards' random ports, so either may hold all
	// eight; the victim is shard 2 unless it holds none.
	dead, alive := 1, 0
	victims := held(t, urls[dead])
	if len(victims) == 0 {
		dead, alive = 0, 1
		victims = held(t, urls[dead])
	}
	for _, s := range victims {
		call(t, "POST", router+"/v1/sessions/"+s.ID+"/step", `{"allocation":[3,3]}`)
	}

	poll(t, "spill file for every seeded session of the victim", func() bool {
		return !slices.ContainsFunc(victims, func(s httpapi.SessionSummary) bool {
			m, _ := filepath.Glob(filepath.Join(spill, s.ID, "ckpt-*.json"))
			return len(m) == 0
		})
	})

	var stdout, stderr bytes.Buffer
	code := run([]string{"load", "-target", router, "-requests", "2000", "-sessions", "32", "-concurrency", "16",
		"-skew", "zipf", "-seed", "7", "-error-budget", "0.01",
		"-chaos-kill-pid", strconv.Itoa(shards[dead].cmd.Process.Pid), "-chaos-kill-at", "0.4"}, &stdout, &stderr)
	var res loadgen.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); code != 0 || err != nil || res.WithinErrorBudget == nil || !*res.WithinErrorBudget {
		t.Errorf("load: exit %d (%v), want 0 within the 1 %% error budget\n%s%s", code, err, stderr.String(), stdout.String())
	}
	shards[dead].killed(t)

	for _, s := range victims {
		mustContain(t, "failed-over session", call(t, "GET", router+"/v1/sessions/"+s.ID, ""), `"`+s.ID+`"`)
		mustContain(t, "failed-over step", call(t, "POST", router+"/v1/sessions/"+s.ID+"/step", `{"allocation":[3,3]}`), `"reward"`)
	}
	metrics := call(t, "GET", router+"/metrics", "")
	for _, re := range []string{
		`(?m)^miras_router_failover_total [1-9]`,
		`(?m)^miras_router_retries_total\{shard="` + regexp.QuoteMeta(urls[dead]) + `"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(metrics) {
			t.Errorf("router /metrics does not match %s:\n%s", re, metrics)
		}
	}
	_, health := do(t, "GET", router+"/healthz", "") // 503 while a member is down
	mustContain(t, "router /healthz", health, `"failover_to":"`+urls[alive]+`"`)
}

// TestTrainResume SIGTERMs a checkpointing training run once its first
// checkpoint lands: it must exit 0 without writing CSVs, and -resume must
// then reproduce an uninterrupted run's CSVs byte for byte.
func TestTrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice; skipped in -short mode")
	}
	dir := t.TempDir()
	golden, resumed, ckpt := filepath.Join(dir, "golden"), filepath.Join(dir, "resumed"), filepath.Join(dir, "ckpt")
	// Eight iterations keep the window between the first checkpoint and
	// the run's end wide on a loaded machine.
	train := []string{"train", "-iterations", "8", "-out"}
	runOK(t, append(train, golden)...)
	interrupted := start(t, nil, append(train, resumed, "-checkpoint-dir", ckpt)...)
	poll(t, "checkpoint", func() bool {
		m, _ := filepath.Glob(filepath.Join(ckpt, "ckpt-*.json"))
		return len(m) > 0
	})
	interrupted.stop(t)
	if m, _ := filepath.Glob(filepath.Join(resumed, "*.csv")); len(m) != 0 {
		t.Fatalf("interrupted run wrote %v; a stop must write no CSV", m)
	}
	runOK(t, append(train, resumed, "-checkpoint-dir", ckpt, "-resume")...)

	want, _ := filepath.Glob(filepath.Join(golden, "*.csv"))
	if len(want) == 0 {
		t.Fatal("uninterrupted run wrote no CSV")
	}
	for _, path := range want {
		a, _ := os.ReadFile(path)
		b, err := os.ReadFile(filepath.Join(resumed, filepath.Base(path)))
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between the uninterrupted and the resumed run (%v)", filepath.Base(path), err)
		}
	}
}

var updateManifest = flag.Bool("update", false, "rewrite the golden manifest this process's math.Exp path selects")

const (
	goldenManifest      = "testdata/golden_demo.sha256"
	goldenManifestNoFMA = "testdata/golden_demo_nofma.sha256"
)

// TestGoldenManifest runs the seeded short-horizon train, compare and chaos
// pipelines (debug-level -trace-out on) and the quick budget sweep, then
// pins the sha256 of every CSV and JSONL trace they write in
// testdata/golden_demo.sha256. Any behavioural drift changes the CSV bytes;
// any telemetry drift (a span added, dropped, reordered, re-parented or
// re-tagged) changes the trace bytes. Where math.Exp takes its non-FMA path
// (see experiments' golden gate), the files that differ there are pinned in
// testdata/golden_demo_nofma.sha256 instead. Refresh deliberately with
//
//	go test ./cmd/miras -run TestGoldenManifest -update
//	GODEBUG=cpu.fma=off go test ./cmd/miras -run TestGoldenManifest -update
func TestGoldenManifest(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if testing.Short() && !*updateManifest {
		t.Skip("golden manifest trains a policy; skipped in -short mode")
	}
	out := t.TempDir()
	traced := func(name string) []string {
		return []string{"-out", out, "-trace-out", filepath.Join(out, name+".jsonl"), "-log-level", "debug"}
	}
	runOK(t, append([]string{"train"}, traced("train")...)...)
	runOK(t, append([]string{"compare", "-iterations", "2", "-steps-per-iter", "50", "-policy-episodes", "6"}, traced("compare")...)...)
	runOK(t, append([]string{"chaos", "-algorithms", "stream,heft,monad", "-windows", "8"}, traced("chaos")...)...)
	runOK(t, "budget", "-scale", "quick", "-out", out)

	got := map[string]string{}
	files, _ := filepath.Glob(filepath.Join(out, "*"))
	for _, path := range files {
		if ext := filepath.Ext(path); ext != ".csv" && ext != ".jsonl" {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	// 0x404759a28795660f is math.Exp(3.84375) on its FMA path; the non-FMA
	// path rounds it one ulp higher.
	fma := math.Float64bits(math.Exp(3.84375)) == 0x404759a28795660f
	if *updateManifest {
		if fma {
			writeManifest(t, goldenManifest, got)
			return
		}
		diff := map[string]string{} // off the FMA path, only what differs
		for name, sum := range readManifest(t, goldenManifest) {
			if got[name] != sum {
				diff[name] = got[name]
			}
		}
		writeManifest(t, goldenManifestNoFMA, diff)
		return
	}

	pinned := readManifest(t, goldenManifest)
	if !fma {
		for name, sum := range readManifest(t, goldenManifestNoFMA) {
			pinned[name] = sum
		}
	}
	for name, sum := range pinned {
		if got[name] != sum {
			t.Errorf("%s drifted (math.Exp FMA path: %v): sha256 %q, pinned %s", name, fma, got[name], sum)
		}
	}
	for name := range got {
		if _, ok := pinned[name]; !ok {
			t.Errorf("%s is written but not pinned (run with -update)", name)
		}
	}
}

// TestTrainTraceHoldsOnlySpans: a debug-level -trace-out file carries one
// kind of record, the span. Every line is a named "span" record, and the
// per-window, per-iteration, per-fit, per-update and per-actuation fields
// the paper's figures read are attributes of the span of that occurrence.
func TestTrainTraceHoldsOnlySpans(t *testing.T) {
	out := t.TempDir()
	path := filepath.Join(out, "train.jsonl")
	runOK(t, "train", "-iterations", "1",
		"-out", out, "-trace-out", path, "-log-level", "debug")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]any{} // first record per span name
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		name, _ := m["name"].(string)
		if m["msg"] != "span" || name == "" {
			t.Fatalf("line %d is not a span record: %s", i+1, line)
		}
		if seen[name] == nil {
			seen[name] = m
		}
	}
	for name, keys := range map[string][]string{
		"train.iteration": {"iteration", "dataset", "model_loss", "policy_episodes", "synthetic_return",
			"eval_return", "noise_sigma", "ddpg_updates", "rolled_back"},
		"train.health_guard":     {"rolled_back"},
		"model.fit":              {"dataset", "epochs", "losses", "final_loss"},
		"ddpg.update":            {"update", "critic_loss", "mean_q", "replay", "sigma"},
		"env.window":             {"window", "action", "wip", "reward", "mean_delay", "completed"},
		"cluster.scale":          {"target", "available", "queues", "inflight"},
		"cluster.consumer_start": {"service", "startup_delay"},
		"cluster.consumer_up":    {"service", "available"},
	} {
		m := seen[name]
		if m == nil {
			t.Fatalf("no %s span in the trace (names: %v)", name, slices.Sorted(maps.Keys(seen)))
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s span lacks %s: %v", name, k, m)
			}
		}
	}
}

// readManifest parses sha256sum-format lines into file name → digest.
func readManifest(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			m[name] = sum
		}
	}
	return m
}

// writeManifest writes m in sha256sum format, sorted by file name.
func writeManifest(t *testing.T, path string, m map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s  %s\n", m[name], name)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
