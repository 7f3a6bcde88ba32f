package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/rl"
)

// TestServedStepAllocs pins the allocation cost of one served msd auto-step
// with a 64×64×64 policy, the step the serve benchmarks send, counted the
// way a client pays for it: its own request, the round trip through an
// in-process transport, and reading the answer into a reused buffer. The
// shard-only step is one httpapi.Server; the routed step crosses a router
// to one of two shards. Between them they cover the emulator window, the
// path split, the decide, the appended answer and the router's hop.
func TestServedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the counts hold for a plain build")
	}
	agent, err := rl.NewDDPG(rl.Config{
		StateDim: 4, ActionDim: 4, Hidden: []int{64, 64, 64}, ReplayCapacity: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := json.Marshal(agent.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"http://shard-0", "http://shard-1"}
	fleet := loadgen.NewFleetTransport()
	for _, m := range members {
		fleet.Register(m, httpapi.NewServer(httpapi.WithShardTopology(m, members)).Handler())
	}
	rt, err := New(members, WithClient(&http.Client{Transport: fleet}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		top  http.RoundTripper
		max  float64
	}{
		{"shard", loadgen.NewHandlerTransport(httpapi.NewServer().Handler()), 28},
		{"routed", loadgen.NewHandlerTransport(rt.Handler()), 46},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			call := func(method, path string, payload []byte, want int) {
				t.Helper()
				req, err := http.NewRequest(method, "http://serve"+path, bytes.NewReader(payload))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := tc.top.RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				body.Reset()
				_, _ = body.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, body.Bytes())
				}
			}
			call("POST", "/v1/sessions", []byte(`{"ensemble":"msd","budget":14,"window_sec":30,"seed":7}`), http.StatusCreated)
			var info httpapi.SessionInfo
			if err := json.Unmarshal(body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			path := "/v1/sessions/" + info.ID
			call("POST", path+"/policy", policy, http.StatusOK)
			step := []byte("{}")
			for k := 0; k < 20; k++ {
				call("POST", path+"/step", step, http.StatusOK)
			}
			allocs := testing.AllocsPerRun(200, func() { call("POST", path+"/step", step, http.StatusOK) })
			if !bytes.Contains(body.Bytes(), []byte(`"controller":"policy"`)) {
				t.Fatalf("the policy did not decide: %s", body.Bytes())
			}
			if allocs > tc.max {
				t.Fatalf("%s auto-step: %g allocs, want ≤ %g", tc.name, allocs, tc.max)
			}
			t.Logf("%s auto-step: %g allocs", tc.name, allocs)
		})
	}
}
