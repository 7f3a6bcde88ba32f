package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an atomic fake wall clock for driving TTL/idle eviction
// deterministically from tests (the server reads it from handler
// goroutines).
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func lifecycleClient(t *testing.T, opts ...Option) (*client, *Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	srv := NewServer(append([]Option{WithClock(clock.Now)}, opts...)...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, srv: ts}, srv, clock
}

func TestTTLEvictionAndTombstone(t *testing.T) {
	c, srv, clock := lifecycleClient(t)
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 4, TTLSeconds: 60,
	}, &info); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	if info.TTLSeconds != 60 {
		t.Fatalf("TTLSeconds=%g, want 60", info.TTLSeconds)
	}

	// Just short of the TTL the session serves; activity does not extend a
	// TTL (unlike an idle bound).
	clock.Advance(59 * time.Second)
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("pre-TTL info status %d", status)
	}
	clock.Advance(2 * time.Second)
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusGone {
		t.Fatalf("post-TTL info status %d, want 410", status)
	}
	// The tombstone keeps answering 410, and the slot is freed.
	if status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
		StepRequest{Allocation: []int{2, 2}}, nil); status != http.StatusGone {
		t.Fatalf("tombstoned step status %d, want 410", status)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("SessionCount=%d after eviction, want 0", n)
	}
}

func TestIdleEvictionTouchedByActivity(t *testing.T) {
	c, _, clock := lifecycleClient(t)
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 4, IdleTimeoutSeconds: 30,
	}, &info); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	// Touch every 20s: the idle clock resets each time, so the session
	// outlives many multiples of the bound.
	for i := 0; i < 5; i++ {
		clock.Advance(20 * time.Second)
		if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusOK {
			t.Fatalf("touch %d status %d", i, status)
		}
	}
	clock.Advance(31 * time.Second)
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusGone {
		t.Fatalf("idle-expired status %d, want 410", status)
	}
}

func TestSweepExpired(t *testing.T) {
	c, srv, clock := lifecycleClient(t)
	for i := 0; i < 4; i++ {
		if status := c.do("POST", "/v1/sessions", CreateRequest{
			Ensemble: "toy", Budget: 4, TTLSeconds: 10,
		}, nil); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
	}
	c.createSession(4) // unbounded, must survive the sweep
	if n := srv.SweepExpired(); n != 0 {
		t.Fatalf("premature sweep evicted %d", n)
	}
	clock.Advance(11 * time.Second)
	if n := srv.SweepExpired(); n != 4 {
		t.Fatalf("sweep evicted %d, want 4", n)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("SessionCount=%d after sweep, want 1", n)
	}
}

func TestDeleteDoesNotTombstone(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(4)
	if status := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	// Explicit deletion is "never existed" from the API's view: 404, not
	// the 410 reserved for lifecycle eviction.
	if status := c.do("GET", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("post-delete status %d, want 404", status)
	}
}

func TestListPagination(t *testing.T) {
	c, _, _ := lifecycleClient(t)
	const total = 7
	ids := make(map[string]bool, total)
	for i := 0; i < total; i++ {
		info := c.createSession(4)
		ids[info.ID] = true
	}
	var (
		got   []SessionSummary
		token string
		pages int
	)
	for {
		path := "/v1/sessions?limit=3"
		if token != "" {
			path += "&page_token=" + token
		}
		var page ListResponse
		if status := c.do("GET", path, nil, &page); status != http.StatusOK {
			t.Fatalf("list status %d", status)
		}
		if len(page.Sessions) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(page.Sessions))
		}
		got = append(got, page.Sessions...)
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages < 3 {
		t.Fatalf("walked %d pages for %d sessions at limit 3", pages, total)
	}
	if len(got) != total {
		t.Fatalf("listed %d sessions, want %d", len(got), total)
	}
	for i, s := range got {
		if !ids[s.ID] {
			t.Fatalf("listed unknown or duplicate id %q", s.ID)
		}
		delete(ids, s.ID)
		if i > 0 && got[i-1].ID >= s.ID {
			t.Fatalf("listing not strictly ordered: %q then %q", got[i-1].ID, s.ID)
		}
		if s.Ensemble != "toy" || s.AgeSec < 0 || s.IdleSec < 0 {
			t.Fatalf("bad summary %+v", s)
		}
	}

	if status := c.do("GET", "/v1/sessions?limit=bogus", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("bogus limit status %d, want 400", status)
	}
}

func TestListReportsShardAndLifecycle(t *testing.T) {
	c, srv, clock := lifecycleClient(t)
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 4, TTLSeconds: 120, IdleTimeoutSeconds: 90,
	}, &info); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	clock.Advance(40 * time.Second)
	var page ListResponse
	if status := c.do("GET", "/v1/sessions", nil, &page); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(page.Sessions) != 1 {
		t.Fatalf("listed %d sessions, want 1", len(page.Sessions))
	}
	s := page.Sessions[0]
	if s.TTLSeconds != 120 || s.IdleTimeoutSeconds != 90 {
		t.Fatalf("lifecycle bounds %+v", s)
	}
	if s.AgeSec != 40 || s.IdleSec != 40 {
		t.Fatalf("age/idle %+v, want 40/40", s)
	}
	if s.Shard != info.Shard {
		t.Fatalf("list shard %d != create shard %d", s.Shard, info.Shard)
	}
	if srv.sessionByID(info.ID).shardIdx != info.Shard {
		t.Fatalf("reported shard %d is not where the session lives", info.Shard)
	}
	// Listing must not have touched the idle clock.
	clock.Advance(60 * time.Second)
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusGone {
		t.Fatal("listing extended the session's idle lifetime")
	}
}

func TestPerShardBound(t *testing.T) {
	// One shard + per-shard bound 2: the third create must 429 even though
	// the global bound is far away.
	c, _, _ := lifecycleClient(t, WithShards(1), WithMaxSessionsPerShard(2))
	c.createSession(4)
	c.createSession(4)
	if status := c.do("POST", "/v1/sessions",
		CreateRequest{Ensemble: "toy", Budget: 4}, nil); status != http.StatusTooManyRequests {
		t.Fatalf("third create status %d, want 429", status)
	}
}

// TestDrainRehydrateByteIdentical is the acceptance pin: spill every
// session on drain, rehydrate on a second server sharing the directory,
// and require the rehydrated sessions' snapshots to be byte-identical to
// the pre-drain ones.
func TestDrainRehydrateByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cA, _, _ := lifecycleClient(t, WithSpillDir(dir))

	// Build sessions with non-trivial histories: steps, a burst, faults.
	var ids []string
	for i := 0; i < 3; i++ {
		var info SessionInfo
		if status := cA.do("POST", "/v1/sessions", CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
		ids = append(ids, info.ID)
		for k := 0; k < 3+i; k++ {
			if status := cA.do("POST", "/v1/sessions/"+info.ID+"/step",
				StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
				t.Fatalf("step status %d", status)
			}
		}
		if status := cA.do("POST", "/v1/sessions/"+info.ID+"/burst",
			BurstRequest{Counts: []int{2}}, nil); status != http.StatusOK {
			t.Fatalf("burst status %d", status)
		}
	}

	pre := make(map[string]string, len(ids))
	for _, id := range ids {
		status, body := cA.rawDo("GET", "/v1/sessions/"+id+"/snapshot", "")
		if status != http.StatusOK {
			t.Fatalf("pre-drain snapshot %s status %d", id, status)
		}
		pre[id] = body
	}

	var drained DrainResponse
	if status := cA.do("POST", "/v1/admin/drain", nil, &drained); status != http.StatusOK {
		t.Fatalf("drain status %d", status)
	}
	if len(drained.Spilled) != len(ids) {
		t.Fatalf("drained %v, want %d sessions", drained.Spilled, len(ids))
	}
	for _, id := range ids {
		if status := cA.do("GET", "/v1/sessions/"+id, nil, nil); status != http.StatusGone {
			t.Fatalf("drained session %s status %d, want 410", id, status)
		}
	}

	// A second server adopts the spill directory — the "another shard" of
	// the drain story.
	cB, _, _ := lifecycleClient(t, WithSpillDir(dir))
	var re RehydrateResponse
	if status := cB.do("POST", "/v1/admin/rehydrate", nil, &re); status != http.StatusOK {
		t.Fatalf("rehydrate status %d", status)
	}
	if len(re.Failed) != 0 {
		t.Fatalf("rehydrate failures: %v", re.Failed)
	}
	if len(re.Rehydrated) != len(ids) {
		t.Fatalf("rehydrated %v, want %d sessions", re.Rehydrated, len(ids))
	}

	for _, id := range ids {
		status, body := cB.rawDo("GET", "/v1/sessions/"+id+"/snapshot", "")
		if status != http.StatusOK {
			t.Fatalf("post-rehydrate snapshot %s status %d", id, status)
		}
		if body != pre[id] {
			t.Fatalf("session %s snapshot drifted through drain→rehydrate:\npre:  %s\npost: %s",
				id, pre[id], body)
		}
		// The session serves normally again.
		if status := cB.do("POST", "/v1/sessions/"+id+"/step",
			StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("post-rehydrate step %s status %d", id, status)
		}
	}

	// The spill stores were consumed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			t.Fatalf("spill store %s left behind after rehydrate", ent.Name())
		}
	}
}

func TestDrainRequiresSpillDir(t *testing.T) {
	c := newClient(t)
	if status := c.do("POST", "/v1/admin/drain", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("drain without spill dir status %d, want 400", status)
	}
	if status := c.do("POST", "/v1/admin/rehydrate", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("rehydrate without spill dir status %d, want 400", status)
	}
}

func TestEvictionSpillsSnapshot(t *testing.T) {
	dir := t.TempDir()
	c, srv, clock := lifecycleClient(t, WithSpillDir(dir))
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 4, TTLSeconds: 5,
	}, &info); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	clock.Advance(6 * time.Second)
	if n := srv.SweepExpired(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID)); err != nil {
		t.Fatalf("TTL eviction left no spill store: %v", err)
	}
	// Rehydrate resurrects it — the tombstone is cleared.
	var re RehydrateResponse
	if status := c.do("POST", "/v1/admin/rehydrate", nil, &re); status != http.StatusOK {
		t.Fatalf("rehydrate status %d", status)
	}
	if len(re.Rehydrated) != 1 || re.Rehydrated[0] != info.ID {
		t.Fatalf("rehydrated %v, want [%s]", re.Rehydrated, info.ID)
	}
	if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("resurrected session status %d, want 200", status)
	}
}

// TestConcurrentAcrossShards hammers create/step/info/list/delete from
// many goroutines against a many-shard server; under -race this validates
// the sharded registry's locking discipline end to end.
func TestConcurrentAcrossShards(t *testing.T) {
	srv := NewServer(WithShards(8), WithMaxSessions(256))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	shardSeen := make(chan int, workers*6)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{t: t, srv: ts}
			for i := 0; i < 6; i++ {
				var info SessionInfo
				if status := c.do("POST", "/v1/sessions", CreateRequest{
					Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(w*100 + i + 1),
				}, &info); status != http.StatusCreated {
					errs <- fmt.Errorf("worker %d: create status %d", w, status)
					return
				}
				shardSeen <- info.Shard
				for k := 0; k < 3; k++ {
					if status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
						StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
						errs <- fmt.Errorf("worker %d: step status %d", w, status)
						return
					}
				}
				if status := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusOK {
					errs <- fmt.Errorf("worker %d: info status %d", w, status)
					return
				}
				if status := c.do("GET", "/v1/sessions?limit=10", nil, nil); status != http.StatusOK {
					errs <- fmt.Errorf("worker %d: list status %d", w, status)
					return
				}
				if status := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusNoContent {
					errs <- fmt.Errorf("worker %d: delete status %d", w, status)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	close(shardSeen)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("SessionCount=%d after all deletes, want 0", n)
	}
	// The hammer must actually have exercised multiple shards: 72
	// sequential ids over 8 shards should land on at least 3 of them.
	distinct := map[int]bool{}
	for idx := range shardSeen {
		distinct[idx] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("sessions landed on only %d shard(s): %v", len(distinct), distinct)
	}
}

// TestCreateWithHeaderID covers the router contract: a pre-minted id in
// X-Miras-Session-Id is adopted verbatim, and re-using it is rejected.
func TestCreateWithHeaderID(t *testing.T) {
	c := newClient(t)
	createWithID := func(id string) int {
		req, err := http.NewRequest("POST", c.srv.URL+"/v1/sessions",
			strings.NewReader(`{"ensemble":"toy","budget":4}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(SessionIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := createWithID("r42"); status != http.StatusCreated {
		t.Fatalf("header-id create status %d", status)
	}
	if status := c.do("GET", "/v1/sessions/r42", nil, nil); status != http.StatusOK {
		t.Fatal("router-minted id not adopted")
	}
	if status := createWithID("r42"); status != http.StatusBadRequest {
		t.Fatalf("duplicate header-id create status %d, want 400", status)
	}
	if status := createWithID("../escape"); status != http.StatusBadRequest {
		t.Fatalf("path-walking header id status %d, want 400", status)
	}
	// The duplicate rejection must not have broken the live session.
	if status := c.do("POST", "/v1/sessions/r42/step",
		StepRequest{Allocation: []int{2, 2}}, nil); status != http.StatusOK {
		t.Fatal("live session broken by duplicate create")
	}
}

// sessionSeries lists the metric series labelled with session id, values
// stripped — the per-session footprint a session leaves in the registry.
func sessionSeries(t *testing.T, srv *Server, id string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(scrape(t, srv), "\n") {
		if strings.Contains(line, `session="`+id+`"`) {
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(out)
	return out
}

// TestRegistryOneWayInOneWayOut pins the registry's single admit and single
// remove through the per-session metric series: a session that came in
// through rehydrate carries exactly the series a created one does, a
// refused duplicate create leaves the live session's series alone, and
// every exit — drain, DELETE, expiry — leaves none behind.
func TestRegistryOneWayInOneWayOut(t *testing.T) {
	c, srv, clock := lifecycleClient(t, WithSpillDir(t.TempDir()))
	const id = "adopted-1"
	if status := createWithID(t, c, id, ""); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	created := sessionSeries(t, srv, id)
	if len(created) != 6 {
		t.Fatalf("a created session registered %d series, want 6: %v", len(created), created)
	}
	if status := createWithID(t, c, id, ""); status != http.StatusBadRequest {
		t.Fatalf("duplicate create status %d, want 400", status)
	}
	if got := sessionSeries(t, srv, id); !reflect.DeepEqual(got, created) {
		t.Fatalf("refused duplicate create changed the live session's series:\n got %v\nwant %v", got, created)
	}

	if status := c.do("POST", "/v1/admin/drain", nil, nil); status != http.StatusOK {
		t.Fatalf("drain status %d", status)
	}
	if got := sessionSeries(t, srv, id); len(got) != 0 {
		t.Fatalf("drain left series behind: %v", got)
	}
	if status := c.do("POST", "/v1/admin/rehydrate", nil, nil); status != http.StatusOK {
		t.Fatalf("rehydrate status %d", status)
	}
	if got := sessionSeries(t, srv, id); !reflect.DeepEqual(got, created) {
		t.Fatalf("rehydrated session's series differ from a created one's:\n got %v\nwant %v", got, created)
	}

	if status := c.do("DELETE", "/v1/sessions/"+id, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	if got := sessionSeries(t, srv, id); len(got) != 0 {
		t.Fatalf("DELETE left series behind: %v", got)
	}

	var info SessionInfo
	if status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 4, TTLSeconds: 5,
	}, &info); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	clock.Advance(6 * time.Second)
	if n := srv.SweepExpired(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if got := sessionSeries(t, srv, info.ID); len(got) != 0 {
		t.Fatalf("expiry left series behind: %v", got)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("SessionCount=%d after every session left, want 0", n)
	}
}
