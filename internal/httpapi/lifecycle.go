package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"miras/internal/checkpoint"
)

// SessionSummary is one row of GET /v1/sessions: lifecycle at a glance,
// without the full state vector.
type SessionSummary struct {
	ID       string `json:"id"`
	Ensemble string `json:"ensemble"`
	Windows  int    `json:"windows"`
	// AgeSec and IdleSec are wall-clock seconds since creation and since
	// the last request that touched the session.
	AgeSec  float64 `json:"age_sec"`
	IdleSec float64 `json:"idle_sec"`
	// TTLSeconds and IdleTimeoutSeconds echo the session's lifecycle
	// bounds (0 = unbounded).
	TTLSeconds         float64 `json:"ttl_seconds,omitempty"`
	IdleTimeoutSeconds float64 `json:"idle_timeout_seconds,omitempty"`
	HasPolicy          bool    `json:"has_policy"`
	Degraded           bool    `json:"degraded"`
}

// ListResponse is a page of sessions. NextPageToken, when set, is the
// page_token for the next page; absent means the listing is exhausted.
type ListResponse struct {
	Sessions      []SessionSummary `json:"sessions"`
	NextPageToken string           `json:"next_page_token,omitempty"`
}

// DrainResponse reports the sessions POST /v1/admin/drain spilled and
// evicted, sorted by id.
type DrainResponse struct {
	Spilled []string `json:"spilled"`
}

// RehydrateRequest is the optional body of POST /v1/admin/rehydrate.
// TakeOver lists shard-process addresses whose spilled sessions this
// process should adopt in addition to its own — `miras route`'s failover
// path posts the dead member's address here so the fallback serves the
// dead member's sessions from the shared spill directory. An empty body
// keeps the default behavior (adopt only sessions this process owns).
type RehydrateRequest struct {
	TakeOver []string `json:"take_over,omitempty"`
}

// RehydrateResponse reports the spilled sessions POST /v1/admin/rehydrate
// adopted (sorted by id) and, per id, why any could not be rebuilt.
type RehydrateResponse struct {
	Rehydrated []string          `json:"rehydrated"`
	Failed     map[string]string `json:"failed,omitempty"`
}

// MaxListLimit is the largest session-listing page: the shard's full page,
// and what the router asks every shard for when it merges a listing.
const MaxListLimit = 1000

// ListLimit reads a session listing's page size from q's limit: 100 when
// absent, at most MaxListLimit. A limit that is not a positive integer is
// answered here, 400 bad_request, and ok is false. The shard and the router
// parse it alike.
func ListLimit(w http.ResponseWriter, q url.Values) (limit int, ok bool) {
	limit = 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("limit must be a positive integer, got %q", raw))
			return 0, false
		}
		limit = n
	}
	return min(limit, MaxListLimit), true
}

// handleList serves GET /v1/sessions?limit=&page_token=. Sessions are
// ordered lexicographically by id; page_token is the last id of the
// previous page (exclusive). Listing does not touch the sessions' idle
// clocks — an operator watching the fleet must not keep it alive.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query()
	limit, ok := ListLimit(w, q)
	if !ok {
		return
	}
	token := q.Get("page_token")

	now := s.now()
	var live []*session
	for _, sess := range s.registry.snapshot() {
		if sess.id <= token && token != "" {
			continue
		}
		if _, exp := sess.expired(now); exp {
			continue // lazy eviction or the sweeper will reap it
		}
		live = append(live, sess)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })

	page := live
	more := false
	if len(page) > limit {
		page = page[:limit]
		more = true
	}
	out := ListResponse{Sessions: make([]SessionSummary, 0, len(page))}
	for _, sess := range page {
		sess.mu.Lock()
		info := sess.Info()
		sess.mu.Unlock()
		out.Sessions = append(out.Sessions, SessionSummary{
			ID:                 info.ID,
			Ensemble:           info.Ensemble,
			Windows:            info.Windows,
			AgeSec:             now.Sub(sess.createdAt).Seconds(),
			IdleSec:            now.Sub(time.Unix(0, sess.lastAccess.Load())).Seconds(),
			TTLSeconds:         info.TTLSeconds,
			IdleTimeoutSeconds: info.IdleTimeoutSeconds,
			HasPolicy:          info.HasPolicy,
			Degraded:           info.Degraded,
		})
	}
	if more && len(page) > 0 {
		out.NextPageToken = page[len(page)-1].id
	}
	writeJSON(w, http.StatusOK, out)
}

// spill writes sess's replayable snapshot to its per-id checkpoint store
// under the server's spill directory. With dirtyOnly it skips a session
// whose store already holds its state and reports false; otherwise it
// reports true. A failed write leaves the session dirty and is counted in
// miras_spill_errors_total.
func (s *Server) spill(sess *session, dirtyOnly bool) (bool, error) {
	sess.mu.Lock()
	snap, ok := sess.SpillSnapshot(dirtyOnly)
	sess.mu.Unlock()
	if !ok {
		return false, nil
	}
	st, err := checkpoint.NewStore(filepath.Join(s.spillDir, sess.id))
	if err == nil {
		err = st.Save(int(s.spillSeq.Add(1)), snap)
	}
	if err != nil {
		s.spillErrors.Inc()
		sess.mu.Lock()
		sess.SetSpilled(false)
		sess.mu.Unlock()
	}
	return true, err
}

// SpillAll writes the snapshot of every live session changed since its last
// spill to the spill store, without evicting anything — the periodic
// spill-sync behind crash recovery: a process that dies without draining
// (SIGKILL, OOM) leaves snapshots no older than the sync interval for a
// fallback to rehydrate. It returns the number of sessions written and the
// first error encountered (the sweep continues past failures, counting them
// in miras_spill_errors_total).
func (s *Server) SpillAll() (int, error) {
	if s.spillDir == "" {
		return 0, fmt.Errorf("spill-all requires a spill directory (start the server with -spill-dir)")
	}
	n := 0
	var firstErr error
	for _, sess := range s.registry.snapshot() {
		wrote, err := s.spill(sess, true)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("spill session %q: %w", sess.id, err)
		}
		if wrote && err == nil {
			n++
		}
	}
	return n, firstErr
}

// removeSpill deletes id's spill store, if any. Best-effort: a failure is
// counted but not surfaced — the caller's operation (a DELETE) already
// succeeded against the live registry.
func (s *Server) removeSpill(id string) {
	if s.spillDir == "" || validateID(id) != nil {
		return
	}
	if err := os.RemoveAll(filepath.Join(s.spillDir, id)); err != nil {
		s.spillErrors.Inc()
	}
}

// handleDrain spills every live session's snapshot to the spill store and
// evicts it, so the process can be retired without losing state. Unlike
// TTL/idle eviction, a drain spill failure aborts the drain — the
// remaining sessions keep serving rather than vanish unspilled.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, _ string) {
	if s.spillDir == "" {
		fail(w, "drain", coded(CodeBadRequest, fmt.Errorf("drain requires a spill directory (start the server with -spill-dir)")))
		return
	}
	resp := DrainResponse{Spilled: []string{}}
	for _, sess := range s.registry.snapshot() {
		// Spill before removing (evict spills after): the session must not
		// leave the registry until its snapshot is durable.
		if _, err := s.spill(sess, false); err != nil {
			fail(w, "drain", coded(CodeInternal, fmt.Errorf("drain: spill session %q: %w", sess.id, err)))
			return
		}
		if s.remove(sess.id, sess, "drain") {
			resp.Spilled = append(resp.Spilled, sess.id)
		}
	}
	sort.Strings(resp.Spilled)
	writeJSON(w, http.StatusOK, resp)
}

// handleRehydrate scans the spill directory and adopts every spilled
// session the routing table lets this process accept, rebuilding each
// through the restore path (fresh system from the snapshot's create
// request, operation log replayed). Adopted sessions keep their original
// ids, shed their tombstones, and their spill stores are deleted. Sessions
// homed on another process are left on disk for it — unless the request
// body names that home in take_over: each entry is a reassignment row
// applied to this request's copy of the table, so this process adopts those
// too (shard failover). Sessions that fail to rebuild are reported in
// "failed" and left on disk.
func (s *Server) handleRehydrate(w http.ResponseWriter, r *http.Request, _ string) {
	if s.spillDir == "" {
		fail(w, "rehydrate", coded(CodeBadRequest, fmt.Errorf("rehydrate requires a spill directory (start the server with -spill-dir)")))
		return
	}
	var req RehydrateRequest
	if body, err := io.ReadAll(r.Body); err != nil {
		fail(w, "rehydrate", bodyError(fmt.Errorf("rehydrate: read body: %w", err)))
		return
	} else if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			fail(w, "rehydrate", coded(CodeBadRequest, fmt.Errorf("rehydrate: %w", err)))
			return
		}
	}
	table := s.table
	if table != nil {
		for _, home := range req.TakeOver {
			table = table.Reassign(home, s.self)
		}
	}
	entries, err := os.ReadDir(s.spillDir)
	if err != nil && !os.IsNotExist(err) {
		fail(w, "rehydrate", coded(CodeInternal, fmt.Errorf("rehydrate: read spill directory: %w", err)))
		return
	}
	resp := RehydrateResponse{Rehydrated: []string{}, Failed: map[string]string{}}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if validateID(id) != nil {
			continue // not a session spill store
		}
		if table != nil && !table.Accepts(s.self, id, "") {
			continue // another process's session; leave it for its home
		}
		if s.sessionByID(id) != nil {
			continue // already live here
		}
		if err := s.rehydrateOne(id); err != nil {
			resp.Failed[id] = err.Error()
			continue
		}
		resp.Rehydrated = append(resp.Rehydrated, id)
	}
	sort.Strings(resp.Rehydrated)
	if len(resp.Failed) == 0 {
		resp.Failed = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// rehydrateOne loads id's latest spill checkpoint and rebuilds the session
// under its original id. The spill store is removed only after the session
// is live again, and kept under WithDurableSessions: it already holds the
// session's current state, its crash copy until the next SpillAll.
func (s *Server) rehydrateOne(id string) error {
	dir := filepath.Join(s.spillDir, id)
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		return err
	}
	var in snapshotJSON
	if _, err := st.LoadLatest(&in); err != nil {
		return err
	}
	snap, err := s.policies.snapshot(in)
	if err != nil {
		return fmt.Errorf("%s: %w", codeOf(err), err)
	}
	_, err = s.admit(id, func() (*session, error) {
		built, err := buildFromSnapshot(snap)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", codeOf(err), err) // the "failed" map shows why the replay broke
		}
		built.SetSpilled(s.durable) // otherwise the store is deleted below
		return built, nil
	})
	if err != nil {
		return err
	}
	if s.durable {
		return nil
	}
	// The session is live again; its spill store has served its purpose.
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("session %q rehydrated but spill store not removed: %w", id, err)
	}
	return nil
}
