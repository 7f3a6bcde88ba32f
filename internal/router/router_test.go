package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"miras/internal/faults"
	"miras/internal/httpapi"
	"miras/internal/obs"
	"miras/internal/shardring"
)

// startFleet boots n in-process shard "processes": each one a full
// `miras serve` handler (API + /metrics + /healthz) bound to a real
// 127.0.0.1 port, configured with the fleet topology so it rejects ids it
// does not own with 421.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	listeners := make([]net.Listener, n)
	members := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		members[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range listeners {
		srv := httpapi.NewServer(httpapi.WithShardTopology(members[i], members))
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		obs.MountDebug(mux, srv.Registry())
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return members
}

func startRouter(t *testing.T, members []string) string {
	t.Helper()
	rt, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// jdo issues a JSON request against base and decodes the response into out
// when the status is 2xx.
func jdo(t *testing.T, base, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, base+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestRouterRoutesEveryVerbToOwningShard is the tentpole integration pin:
// two shard processes behind a router, every /v1/sessions/{id} verb issued
// through the router succeeds, the session lives only on the ring's owner
// (the owner serves it directly; the other shard answers 421 wrong_shard),
// and both shards end up holding sessions.
func TestRouterRoutesEveryVerbToOwningShard(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)
	ring, err := shardring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}

	shardsHit := map[string]bool{}
	for i := 0; i < 8; i++ {
		var info httpapi.SessionInfo
		if status := jdo(t, routerURL, "POST", "/v1/sessions", httpapi.CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
		if !strings.HasPrefix(info.ID, "r") {
			t.Fatalf("router-minted id %q not in the r namespace", info.ID)
		}
		owner := ring.Owner(info.ID)
		shardsHit[owner] = true

		// Every verb through the router must land and succeed.
		id := info.ID
		if status := jdo(t, routerURL, "GET", "/v1/sessions/"+id, nil, nil); status != http.StatusOK {
			t.Fatalf("info via router status %d", status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/step",
			httpapi.StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("step via router status %d", status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/burst",
			httpapi.BurstRequest{Counts: []int{1}}, nil); status != http.StatusOK {
			t.Fatalf("burst via router status %d", status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/faults", faults.Plan{
			Specs: []faults.Spec{{Kind: faults.Slowdown, Service: 0, DurationSec: 60, Factor: 2}},
		}, nil); status != http.StatusOK {
			t.Fatalf("faults via router status %d", status)
		}
		var snap httpapi.SessionSnapshot
		if status := jdo(t, routerURL, "GET", "/v1/sessions/"+id+"/snapshot", nil, &snap); status != http.StatusOK {
			t.Fatalf("snapshot via router status %d", status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/restore", snap, nil); status != http.StatusOK {
			t.Fatalf("restore via router status %d", status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/reset", nil, nil); status != http.StatusOK {
			t.Fatalf("reset via router status %d", status)
		}

		// Placement: the owner serves the id directly; the other shard
		// refuses it with 421 naming the owner.
		for _, m := range members {
			status := jdo(t, m, "GET", "/v1/sessions/"+id, nil, nil)
			if m == owner && status != http.StatusOK {
				t.Fatalf("owner %s does not hold %s (status %d)", m, id, status)
			}
			if m != owner {
				if status != http.StatusMisdirectedRequest {
					t.Fatalf("non-owner %s answered %d for %s, want 421", m, status, id)
				}
			}
		}

		if i%2 == 1 {
			if status := jdo(t, routerURL, "DELETE", "/v1/sessions/"+id, nil, nil); status != http.StatusNoContent {
				t.Fatalf("delete via router status %d", status)
			}
			if status := jdo(t, routerURL, "GET", "/v1/sessions/"+id, nil, nil); status != http.StatusNotFound {
				t.Fatalf("deleted id via router status %d, want 404", status)
			}
		}
	}
	if len(shardsHit) != 2 {
		t.Fatalf("all sessions landed on one shard: %v", shardsHit)
	}
}

// TestRouterEnsemblesRideTheTable: the static catalog has no session id, so
// it routes under the empty key — to that key's home, or to whoever the
// table says serves the home after a reassignment.
func TestRouterEnsemblesRideTheTable(t *testing.T) {
	members := startFleet(t, 2)
	rt, base := startRouterWith(t, members)
	catalog := func() {
		t.Helper()
		var out []httpapi.EnsembleInfo
		if status := jdo(t, base, "GET", "/v1/ensembles", nil, &out); status != http.StatusOK || len(out) != 3 {
			t.Fatalf("ensembles through the router: status %d, %d entries", status, len(out))
		}
	}
	catalog()
	table := rt.table.Load()
	home := table.Home("")
	other := members[0]
	if other == home {
		other = members[1]
	}
	rt.table.Store(table.Reassign(home, other))
	catalog()
	if got := rt.reqs[other].Value(); got != 1 {
		t.Fatalf("reassigned catalog request reached %s %d times, want 1", other, got)
	}
}

func TestRouterMergedList(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)

	ids := map[string]bool{}
	for i := 0; i < 6; i++ {
		var info httpapi.SessionInfo
		if status := jdo(t, routerURL, "POST", "/v1/sessions", httpapi.CreateRequest{
			Ensemble: "toy", Budget: 4,
		}, &info); status != http.StatusCreated {
			t.Fatalf("create status %d", status)
		}
		ids[info.ID] = true
	}

	var all httpapi.ListResponse
	if status := jdo(t, routerURL, "GET", "/v1/sessions", nil, &all); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(all.Sessions) != len(ids) {
		t.Fatalf("merged list has %d sessions, want %d", len(all.Sessions), len(ids))
	}
	for i, s := range all.Sessions {
		if !ids[s.ID] {
			t.Fatalf("merged list has unknown id %q", s.ID)
		}
		if i > 0 && all.Sessions[i-1].ID >= s.ID {
			t.Fatalf("merged list not ordered: %q then %q", all.Sessions[i-1].ID, s.ID)
		}
	}

	// Paginate at 2 per page; the walk must cover everything exactly once.
	var walked []string
	token := ""
	for {
		path := "/v1/sessions?limit=2"
		if token != "" {
			path += "&page_token=" + token
		}
		var page httpapi.ListResponse
		if status := jdo(t, routerURL, "GET", path, nil, &page); status != http.StatusOK {
			t.Fatalf("paged list status %d", status)
		}
		for _, s := range page.Sessions {
			walked = append(walked, s.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(walked) != len(ids) {
		t.Fatalf("pagination walked %d sessions, want %d: %v", len(walked), len(ids), walked)
	}
}

func TestRouterMergedMetrics(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)

	if status := jdo(t, routerURL, "POST", "/v1/sessions", httpapi.CreateRequest{
		Ensemble: "toy", Budget: 4,
	}, nil); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}

	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	if !strings.Contains(text, "miras_router_requests_total") {
		t.Fatal("merged metrics missing the router's own series")
	}
	for _, m := range members {
		if !strings.Contains(text, fmt.Sprintf("shard=%q", m)) {
			t.Fatalf("merged metrics missing samples from shard %s", m)
		}
	}
	// One preamble per family, not one per shard.
	if n := strings.Count(text, "# TYPE miras_sessions_live gauge"); n != 1 {
		t.Fatalf("family preamble emitted %d times, want 1", n)
	}
	if !strings.Contains(text, `miras_sessions_live{shard=`) {
		t.Fatal("shard label not injected into shard samples")
	}
}

func TestRouterUpstreamDown(t *testing.T) {
	// A ring whose only member is a dead port: a forward must become a clean
	// 502 envelope with the upstream_unreachable code. The request is a bare
	// POST, so its one attempt is all it gets — a retried GET would trip the
	// breaker and end as 503 upstream_degraded instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	routerURL := startRouter(t, []string{dead})
	resp, err := http.Post(routerURL+"/v1/sessions/s1/step", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var env httpapi.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != httpapi.CodeUpstreamUnreachable {
		t.Fatalf("code %q, want %q", env.Error.Code, httpapi.CodeUpstreamUnreachable)
	}
}

func TestRouterHealthz(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)
	if status := jdo(t, routerURL, "GET", "/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthy fleet healthz status %d", status)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	degradedURL := startRouter(t, append([]string{dead}, members...))
	if status := jdo(t, degradedURL, "GET", "/healthz", nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("degraded fleet healthz status %d, want 503", status)
	}
}

// TestRouterListEncodesPageToken: session ids are client-chosen
// (X-Miras-Session-Id) and may hold query metacharacters, and the page token
// is the last id of a page. The router must hand the shards the token it was
// given, not a re-parse of it: a limit=1 walk across such ids lists each
// exactly once.
func TestRouterListEncodesPageToken(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)
	ring, err := shardring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}

	ids := []string{"a+b", "a&limit=1", "a%41"}
	for _, id := range ids {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(httpapi.CreateRequest{Ensemble: "toy", Budget: 4}); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", ring.Owner(id)+"/v1/sessions", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(httpapi.SessionIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %q status %d", id, resp.StatusCode)
		}
	}

	listed := map[string]int{}
	token := ""
	for pages := 0; ; pages++ {
		if pages > len(ids) {
			t.Fatalf("pagination did not terminate: %v", listed)
		}
		query := url.Values{"limit": {"1"}}
		if token != "" {
			query.Set("page_token", token)
		}
		var page httpapi.ListResponse
		if status := jdo(t, routerURL, "GET", "/v1/sessions?"+query.Encode(), nil, &page); status != http.StatusOK {
			t.Fatalf("paged list status %d", status)
		}
		for _, s := range page.Sessions {
			listed[s.ID]++
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	for _, id := range ids {
		if listed[id] != 1 {
			t.Fatalf("id %q listed %d times, want once: %v", id, listed[id], listed)
		}
	}
	if len(listed) != len(ids) {
		t.Fatalf("listing %v, want exactly %v", listed, ids)
	}
}

// TestRouterFanOutFollowsRequestContext: the list, healthz and metrics
// fan-outs are made on behalf of one inbound request; when its client goes
// away they must stop, not run on against a hung shard until the router
// client's 30 s timeout.
func TestRouterFanOutFollowsRequestContext(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)

	rt, err := New([]string{hung.URL})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/sessions", "/healthz", "/metrics"} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
			rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
		<-arrived // the fan-out is now blocked on the shard
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s still waiting on a hung shard 5 s after its client left", path)
		}
	}
}
