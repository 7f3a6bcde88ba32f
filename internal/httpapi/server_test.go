package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
)

// client wraps an httptest server with JSON helpers.
type client struct {
	t   *testing.T
	srv *httptest.Server
}

func newClient(t *testing.T) *client {
	t.Helper()
	ts := httptest.NewServer(NewServer().Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, srv: ts}
}

func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (c *client) createSession(budget int) SessionInfo {
	c.t.Helper()
	var info SessionInfo
	status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: budget, WindowSec: 10, Seed: 5,
	}, &info)
	if status != http.StatusCreated {
		c.t.Fatalf("create status %d", status)
	}
	return info
}

func TestListEnsembles(t *testing.T) {
	c := newClient(t)
	var out []EnsembleInfo
	if status := c.do("GET", "/v1/ensembles", nil, &out); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(out) != 3 {
		t.Fatalf("ensembles=%d, want 3", len(out))
	}
	byName := map[string]EnsembleInfo{}
	for _, e := range out {
		byName[e.Name] = e
	}
	if len(byName["ligo"].Tasks) != 9 || len(byName["msd"].Workflows) != 3 {
		t.Fatalf("ensemble metadata wrong: %+v", byName)
	}
}

func TestSessionLifecycle(t *testing.T) {
	c := newClient(t)
	info := c.createSession(6)
	if info.StateDim != 2 || info.Budget != 6 || info.WindowSec != 10 {
		t.Fatalf("session info %+v", info)
	}

	// Step with a valid allocation.
	var step StepResponse
	status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
		StepRequest{Allocation: []int{3, 3}}, &step)
	if status != http.StatusOK {
		t.Fatalf("step status %d", status)
	}
	if len(step.State) != 2 || step.Window != 1 {
		t.Fatalf("step response %+v", step)
	}
	var sum float64
	for _, v := range step.State {
		sum += v
	}
	if step.Reward != 1-sum {
		t.Fatalf("reward %g != Eq.1 %g", step.Reward, 1-sum)
	}

	// Info reflects the step.
	var after SessionInfo
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, &after); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if after.Windows != 1 {
		t.Fatalf("windows=%d", after.Windows)
	}

	// Burst injection raises WIP.
	var burst map[string][]float64
	status = c.do("POST", "/v1/sessions/"+info.ID+"/burst",
		BurstRequest{Counts: []int{10}}, &burst)
	if status != http.StatusOK {
		t.Fatalf("burst status %d", status)
	}
	if burst["state"][0] < 10 {
		t.Fatalf("burst not visible in state: %v", burst)
	}

	// Reset clears it.
	var reset map[string][]float64
	if status := c.do("POST", "/v1/sessions/"+info.ID+"/reset", nil, &reset); status != http.StatusOK {
		t.Fatalf("reset status %d", status)
	}
	if reset["state"][0] != 0 {
		t.Fatalf("reset state %v", reset)
	}

	// Delete removes the session.
	if status := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", status)
	}
}

// TestServedSessionMatchesLibraryEnv pins the mapping from a create request
// to env.Config: a session created over the wire, sent the same burst and
// the same allocations as env.New built from the Config the request stands
// for, walks the same states and rewards. The second case leaves seed, rates
// and window to the server's defaults (seed 1, the ensemble's default rates,
// 30 s windows).
func TestServedSessionMatchesLibraryEnv(t *testing.T) {
	msd := func() cluster.Config { return cluster.Config{Ensemble: workflow.NewMSD()} }
	cases := []struct {
		req CreateRequest
		cfg env.Config
	}{
		{
			CreateRequest{Ensemble: "msd", Budget: 14, WindowSec: 20, Rates: []float64{0.3, 0.2, 0.1}, Seed: 9},
			env.Config{Cluster: msd(), Seed: 9, Rates: []float64{0.3, 0.2, 0.1}, Budget: 14, WindowSec: 20},
		},
		{
			CreateRequest{Ensemble: "msd", Budget: 14},
			env.Config{Cluster: msd(), Seed: 1, Budget: 14},
		},
	}
	burst := []int{40, 20, 30}
	alloc := []int{4, 4, 3, 3}
	for i, tc := range cases {
		c := newClient(t)
		var info SessionInfo
		if status := c.do("POST", "/v1/sessions", tc.req, &info); status != http.StatusCreated {
			t.Fatalf("case %d: create status %d", i, status)
		}
		path := "/v1/sessions/" + info.ID
		lib, err := env.New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if status := c.do("POST", path+"/burst", BurstRequest{Counts: burst}, nil); status != http.StatusOK {
			t.Fatalf("case %d: burst status %d", i, status)
		}
		if err := lib.InjectBurst(burst); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			var got StepResponse
			if status := c.do("POST", path+"/step", StepRequest{Allocation: alloc}, &got); status != http.StatusOK {
				t.Fatalf("case %d window %d: step status %d", i, k, status)
			}
			want, err := lib.Step(alloc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.State, want.State) || got.Reward != want.Reward {
				t.Fatalf("case %d window %d: served state %v reward %g, library state %v reward %g",
					i, k, got.State, got.Reward, want.State, want.Reward)
			}
		}
	}
}

func TestStepRejectsBudgetViolation(t *testing.T) {
	c := newClient(t)
	info := c.createSession(4)
	status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
		StepRequest{Allocation: []int{9, 9}}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget step status %d, want 422", status)
	}
}

func TestCreateValidation(t *testing.T) {
	c := newClient(t)
	cases := []CreateRequest{
		{Ensemble: "nope", Budget: 4},
		{Ensemble: "toy", Budget: 0},
		{Ensemble: "toy", Budget: 4, Rates: []float64{1, 2, 3}},
	}
	for i, req := range cases {
		if status := c.do("POST", "/v1/sessions", req, nil); status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, status)
		}
	}
}

func TestUnknownSessionRoutes(t *testing.T) {
	c := newClient(t)
	for _, route := range []struct{ method, path string }{
		{"GET", "/v1/sessions/zz"},
		{"POST", "/v1/sessions/zz/step"},
		{"POST", "/v1/sessions/zz/reset"},
		{"POST", "/v1/sessions/zz/burst"},
		{"DELETE", "/v1/sessions/zz"},
	} {
		body := any(StepRequest{Allocation: []int{1, 1}})
		if status := c.do(route.method, route.path, body, nil); status != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", route.method, route.path, status)
		}
	}
}

func TestSessionLimit(t *testing.T) {
	srv := NewServer(WithMaxSessions(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}
	c.createSession(4)
	c.createSession(4)
	status := c.do("POST", "/v1/sessions", CreateRequest{Ensemble: "toy", Budget: 4}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third session status %d, want 429", status)
	}
	if srv.SessionCount() != 2 {
		t.Fatalf("SessionCount=%d", srv.SessionCount())
	}
}

func TestMalformedJSON(t *testing.T) {
	c := newClient(t)
	req, _ := http.NewRequest("POST", c.srv.URL+"/v1/sessions", bytes.NewBufferString("{broken"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", resp.StatusCode)
	}
}

// TestDrivePolicyOverHTTP runs a complete control episode through the API:
// a burst, then 10 windows of a simple backlog-proportional policy — the
// external-agent integration path.
func TestDrivePolicyOverHTTP(t *testing.T) {
	c := newClient(t)
	info := c.createSession(6)
	if status := c.do("POST", "/v1/sessions/"+info.ID+"/burst",
		BurstRequest{Counts: []int{30}}, nil); status != http.StatusOK {
		t.Fatalf("burst status %d", status)
	}
	state := []float64{30, 0}
	totalCompleted := 0
	for k := 0; k < 10; k++ {
		alloc := []int{3, 3}
		if state[0] < 1 {
			alloc = []int{1, 5}
		}
		var step StepResponse
		status := c.do("POST", fmt.Sprintf("/v1/sessions/%s/step", info.ID),
			StepRequest{Allocation: alloc}, &step)
		if status != http.StatusOK {
			t.Fatalf("window %d status %d", k, status)
		}
		state = step.State
		totalCompleted += step.Completed
	}
	if totalCompleted == 0 {
		t.Fatal("no completions over a 10-window episode")
	}
}

func TestValidateID(t *testing.T) {
	if err := validateID("s1"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a b", "a/b"} {
		if err := validateID(bad); err == nil {
			t.Fatalf("id %q should be invalid", bad)
		}
	}
}

// TestConcurrentSessions drives several sessions from parallel goroutines;
// run under -race this validates the server's locking.
func TestConcurrentSessions(t *testing.T) {
	c := newClient(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var info SessionInfo
			if status := c.do("POST", "/v1/sessions", CreateRequest{
				Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(w + 1),
			}, &info); status != http.StatusCreated {
				errs <- fmt.Errorf("worker %d: create status %d", w, status)
				return
			}
			for k := 0; k < 5; k++ {
				var step StepResponse
				if status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
					StepRequest{Allocation: []int{3, 3}}, &step); status != http.StatusOK {
					errs <- fmt.Errorf("worker %d: step status %d", w, status)
					return
				}
			}
			if status := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusNoContent {
				errs <- fmt.Errorf("worker %d: delete status %d", w, status)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
