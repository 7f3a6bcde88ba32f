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
	"path/filepath"
	"strings"
	"testing"
	"time"

	"miras/internal/checkpoint"
	"miras/internal/faults"
	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/obs"
	"miras/internal/shardring"
)

// startFleet boots n in-process shard "processes": each one a full
// `miras serve` handler (API + /metrics + /healthz) bound to a real
// 127.0.0.1 port, configured with the fleet topology so it rejects ids it
// does not own with 421.
func startFleet(t *testing.T, n int, opts ...httpapi.Option) []string {
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
		srv := httpapi.NewServer(append([]httpapi.Option{httpapi.WithShardTopology(members[i], members)}, opts...)...)
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		obs.MountDebug(mux, srv.Registry(), nil)
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
// each create lands on the ring owner of its placement key, and creates
// reach both shards.
func TestRouterRoutesEveryVerbToOwningShard(t *testing.T) {
	members := startFleet(t, 2)
	routerURL := startRouter(t, members)
	ring, err := shardring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The members are random loopback ports, so where the ring puts the
	// router's placement keys r1, r2, … changes run to run: create at
	// least eight sessions, and on until the ring has placed one on every
	// member.
	const minCreates, maxCreates = 8, 64
	shardsHit := map[string]bool{}
	for i := 0; i < maxCreates && (i < minCreates || len(shardsHit) < len(members)); i++ {
		var info httpapi.SessionInfo
		if status := jdo(t, routerURL, "POST", "/v1/sessions", httpapi.CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
		if !strings.HasPrefix(info.ID, "s") {
			t.Fatalf("shard-minted id %q not in the s namespace", info.ID)
		}
		owner := ring.Owner(info.ID)
		if want := ring.Owner(fmt.Sprintf("r%d", i+1)); owner != want {
			t.Fatalf("create %d: id %q homed on %s, want %s (the owner of r%d)", i, info.ID, owner, want, i+1)
		}
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
	if len(shardsHit) != len(members) {
		t.Fatalf("%d creates reached only %v of %d members", maxCreates, shardsHit, len(members))
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
	// Valid exposition names each label at most once per sample, so no
	// shard series may carry a label the router's injected shard="<url>"
	// collides with.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen := map[string]bool{}
		for _, name := range sampleLabelNames(t, line) {
			if seen[name] {
				t.Fatalf("sample repeats label %q: %s", name, line)
			}
			seen[name] = true
		}
	}
}

// sampleLabelNames returns the label names of one exposition sample line in
// order: `m{a="x",b="y"} 1` gives [a b], `m 1` gives none. Quoted values may
// hold commas, braces and escaped quotes.
func sampleLabelNames(t *testing.T, line string) []string {
	t.Helper()
	open := strings.IndexByte(line, '{')
	if open < 0 || open > strings.IndexByte(line, ' ') {
		return nil
	}
	var names []string
	rest := line[open+1:]
	for !strings.HasPrefix(rest, "}") {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			t.Fatalf("malformed label set: %s", line)
		}
		names = append(names, rest[:eq])
		i := eq + 2
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' {
				i++
			}
		}
		if i >= len(rest) {
			t.Fatalf("unterminated label value: %s", line)
		}
		rest = strings.TrimPrefix(rest[i+1:], ",")
	}
	return names
}

func TestRouterUpstreamDown(t *testing.T) {
	// A ring whose only member is a dead port: a forward must become a clean
	// 502 envelope with the upstream_unreachable code. The request is a
	// reset POST, so its one attempt is all it gets — a retried GET or step
	// would trip the breaker and end as 503 upstream_degraded instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	routerURL := startRouter(t, []string{dead})
	resp, err := http.Post(routerURL+"/v1/sessions/s1/reset", "application/json", strings.NewReader(`{}`))
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

// TestRouterListEncodesPageToken: session ids a shard adopts from a spill
// store need not be minted ones and may hold query metacharacters, and the
// page token is the last id of a page. The router must hand the shards the
// token it was given, not a re-parse of it: a limit=1 walk across such ids
// lists each exactly once.
func TestRouterListEncodesPageToken(t *testing.T) {
	spill := t.TempDir()
	members := startFleet(t, 2, httpapi.WithSpillDir(spill))
	routerURL := startRouter(t, members)

	ids := []string{"a+b", "a&limit=1", "a%41"}
	for _, id := range ids {
		st, err := checkpoint.NewStore(filepath.Join(spill, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(1, httpapi.SessionSnapshot{
			Create: httpapi.CreateRequest{Ensemble: "toy", Budget: 4, Seed: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var adopted []string
	for _, m := range members {
		var rr httpapi.RehydrateResponse
		if status := jdo(t, m, "POST", "/v1/admin/rehydrate", nil, &rr); status != http.StatusOK || len(rr.Failed) != 0 {
			t.Fatalf("rehydrate on %s: status %d, failed %v", m, status, rr.Failed)
		}
		adopted = append(adopted, rr.Rehydrated...)
	}
	if len(adopted) != len(ids) {
		t.Fatalf("rehydrate adopted %v, want %v", adopted, ids)
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

// TestRouterListAsksForFullPage: the router's merged listing is exact only
// while it asks each shard for the page the shard caps at, so the limit it
// sends must be httpapi.MaxListLimit, whatever limit its client asked for.
func TestRouterListAsksForFullPage(t *testing.T) {
	limits := make(chan string, 1)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limits <- r.URL.Query().Get("limit")
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(httpapi.ListResponse{Sessions: []httpapi.SessionSummary{}})
	}))
	defer shard.Close()

	rt, err := New([]string{shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sessions?limit=3", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("list status %d: %s", rr.Code, rr.Body.String())
	}
	if got, want := <-limits, fmt.Sprint(httpapi.MaxListLimit); got != want {
		t.Fatalf("router asked the shard for limit=%s, want the shard's full page %s", got, want)
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

// TestUpstreamMatchesParsedURL pins the forward's request building against
// the reference of parsing member+RequestURI: same URL, Host, ContentLength
// and a rewindable body, for escaped paths, queries and members with a path
// of their own.
func TestUpstreamMatchesParsedURL(t *testing.T) {
	members := []string{"http://a:1", "http://b:2/prefix", "http://c:3/p%2Fq"}
	rt, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{
		"/v1/sessions/s1/step",
		"/v1/sessions/a%2Fb/info?x=1&y=%20z",
		"/v1/sessions?limit=5&page_token=r%26",
	}
	body := []byte(`{"allocation":[1,2]}`)
	for _, shard := range members {
		for _, target := range targets {
			in := httptest.NewRequest("POST", target, nil)
			in.Header.Set("X-Probe", "1")
			got, err := rt.upstream(context.Background(), shard, in, body)
			if err != nil {
				t.Fatal(err)
			}
			want, err := http.NewRequest("POST", shard+in.URL.RequestURI(), bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if got.URL.String() != want.URL.String() || got.URL.RequestURI() != want.URL.RequestURI() ||
				got.Host != want.Host || got.ContentLength != want.ContentLength {
				t.Fatalf("%s + %s: upstream %s (host %q, length %d), want %s (host %q, length %d)",
					shard, target, got.URL, got.Host, got.ContentLength, want.URL, want.Host, want.ContentLength)
			}
			if got.Header.Get("X-Probe") != "1" {
				t.Fatalf("%s + %s: inbound headers not carried", shard, target)
			}
			rewound, err := got.GetBody()
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := io.ReadAll(rewound); !bytes.Equal(b, body) {
				t.Fatalf("%s + %s: GetBody gave %q, want %q", shard, target, b, body)
			}
		}
	}
}

// transportFleet serves n shards from one in-process loadgen.FleetTransport
// and returns the members, their servers and a client over the transport.
func transportFleet(t *testing.T, n int) ([]string, []*httpapi.Server, *http.Client) {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://shard-%d", i)
	}
	fleet := loadgen.NewFleetTransport()
	servers := make([]*httpapi.Server, n)
	for i, m := range members {
		servers[i] = httpapi.NewServer(httpapi.WithShardTopology(m, members))
		fleet.Register(m, servers[i].Handler())
	}
	return members, servers, &http.Client{Transport: fleet}
}

// createVia posts one create to rt's handler and returns the status and
// the answered session.
func createVia(t *testing.T, rt *Router) (int, httpapi.SessionInfo) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"ensemble":"toy","budget":4}`)))
	var info httpapi.SessionInfo
	if rec.Code == http.StatusCreated {
		if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, info
}

// TestRouterReplicasCreateWithoutCollision: two routers over one fleet
// count their creates from the same start, and their creates interleave;
// every create still answers 201 with an id no other create got.
func TestRouterReplicasCreateWithoutCollision(t *testing.T) {
	members, servers, client := transportFleet(t, 2)
	var replicas [2]*Router
	for i := range replicas {
		rt, err := New(members, WithClient(client))
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = rt
	}
	seen := map[string]bool{}
	for n := 0; n < 16; n++ {
		for i, rt := range replicas {
			status, info := createVia(t, rt)
			if status != http.StatusCreated {
				t.Fatalf("replica %d create %d: status %d, want 201", i, n+1, status)
			}
			if seen[info.ID] {
				t.Fatalf("replica %d create %d: id %q answered twice", i, n+1, info.ID)
			}
			seen[info.ID] = true
		}
	}
	if n := servers[0].SessionCount() + servers[1].SessionCount(); n != 32 {
		t.Fatalf("fleet holds %d sessions, want 32", n)
	}
}

// TestRouterRestartCreatesWithoutCollision: a router rebuilt over a fleet
// whose sessions are live creates new ones without colliding, and still
// reaches the sessions its predecessor created.
func TestRouterRestartCreatesWithoutCollision(t *testing.T) {
	members, _, client := transportFleet(t, 2)
	seen := map[string]bool{}
	var routers []*Router
	for life := 0; life < 2; life++ {
		rt, err := New(members, WithClient(client))
		if err != nil {
			t.Fatal(err)
		}
		routers = append(routers, rt)
		for n := 0; n < 8; n++ {
			status, info := createVia(t, rt)
			if status != http.StatusCreated || seen[info.ID] {
				t.Fatalf("router %d create %d: status %d id %q, want 201 and a new id", life, n+1, status, info.ID)
			}
			seen[info.ID] = true
		}
	}
	for id := range seen {
		rec := httptest.NewRecorder()
		routers[1].Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("session %s through the rebuilt router: status %d", id, rec.Code)
		}
	}
}

// TestRouterCreatePlacementPinned: a fresh router's n-th create lands on the
// member serving ring key r<n>, and that member mints an id it homes, so
// where a fleet's sessions live depends only on the order of the creates.
func TestRouterCreatePlacementPinned(t *testing.T) {
	members, servers, client := transportFleet(t, 2)
	rt, err := New(members, WithClient(client))
	if err != nil {
		t.Fatal(err)
	}
	table, err := shardring.NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 32; n++ {
		before := []int{servers[0].SessionCount(), servers[1].SessionCount()}
		status, info := createVia(t, rt)
		if status != http.StatusCreated {
			t.Fatalf("create %d: status %d", n, status)
		}
		want, _ := table.Serving(fmt.Sprintf("r%d", n))
		for i, m := range members {
			grew := servers[i].SessionCount() - before[i]
			wantGrew := 0
			if m == want {
				wantGrew = 1
			}
			if grew != wantGrew {
				t.Fatalf("create %d: %s gained %d sessions, want %d (r%d is served by %s)", n, m, grew, wantGrew, n, want)
			}
		}
		if home := table.Home(info.ID); home != want {
			t.Fatalf("create %d: id %q homed on %s, want %s", n, info.ID, home, want)
		}
	}
}
