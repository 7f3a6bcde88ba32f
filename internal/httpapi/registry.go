package httpapi

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"miras/internal/obs"
)

// tombstoneCap bounds the process's memory of evicted session ids. A ring
// this size remembers the last 8192 evictions — enough that any client
// still holding an evicted id sees 410 session_expired rather than 404,
// without letting a churny workload grow the set forever.
const tombstoneCap = 8192

// registry is the process's session table. sessions maps id → *session and
// is read without a lock, so requests resolving unrelated (or the same)
// sessions never contend on it; mu serialises every insert and delete
// together with the tombstone ring, so an id is never live and tombstoned
// at once.
type registry struct {
	sessions sync.Map // id → *session
	mu       sync.Mutex
	tombs    tombstones
}

// snapshot returns the live sessions as of now. Sweeps (expiry, listing,
// spill-sync, drain) walk the copy so no lock is held while they work on a
// session.
func (r *registry) snapshot() []*session {
	var out []*session
	r.sessions.Range(func(_, v any) bool {
		out = append(out, v.(*session))
		return true
	})
	return out
}

// tombstones is a bounded FIFO memory of evicted session ids, guarded by
// the registry's lock. set maps each remembered id to the ring slot of its
// latest eviction: an id evicted, rehydrated and evicted again also sits in
// a stale earlier slot, whose overwrite must not forget it.
type tombstones struct {
	ring []string
	next int
	set  map[string]int
}

func (t *tombstones) add(id string) {
	if _, ok := t.set[id]; ok {
		return
	}
	if t.set == nil {
		t.set = make(map[string]int)
	}
	slot := len(t.ring)
	if slot < tombstoneCap {
		t.ring = append(t.ring, id)
	} else {
		slot = t.next
		if old := t.ring[slot]; t.set[old] == slot {
			delete(t.set, old)
		}
		t.ring[slot] = id
		t.next = (t.next + 1) % tombstoneCap
	}
	t.set[id] = slot
}

func (t *tombstones) has(id string) bool {
	_, ok := t.set[id]
	return ok
}

// remove forgets id, so a rehydrated (or re-created) session stops
// answering 410. The ring slot is left in place and simply misses the set
// when it is eventually overwritten.
func (t *tombstones) remove(id string) {
	delete(t.set, id)
}

// mintID draws the next session id from the shared sequence. It skips ids
// the routing table homes on other processes, so every process walking the
// sequence mints from a disjoint namespace without coordination, and ids
// live here or holding a spill store, so a process restarted over its spill
// directory does not re-mint a drained session's id.
func (s *Server) mintID() string {
	for {
		id := "s" + strconv.FormatInt(s.nextID.Add(1), 10)
		if s.table != nil && !s.table.Accepts(s.self, id, "") || s.sessionByID(id) != nil {
			continue
		}
		if s.spillDir != "" {
			if _, err := os.Lstat(filepath.Join(s.spillDir, id)); err == nil {
				continue
			}
		}
		return id
	}
}

// sessionSeries names each per-session metric series once, with the
// session field holding it: admit registers every row for a new session,
// labelled with its id, and remove deletes every row's series.
var sessionSeries = [...]struct {
	name, help string
	field      func(*session) any // a **obs.Gauge or **obs.Counter
}{
	{"miras_env_wip", "Total work-in-progress (queued + in-service tasks), by session.", func(s *session) any { return &s.wip }},
	{"miras_cluster_inflight", "Live (incomplete) workflow instances, by session.", func(s *session) any { return &s.inflight }},
	{"miras_faults_total", "Fault events injected (episode activations and consumer crashes), by session.", func(s *session) any { return &s.faultsTotal }},
	{"miras_consumers_crashed", "Consumers killed by fault injection, by session.", func(s *session) any { return &s.crashed }},
	{"miras_controller_fallback_total", "Policy failures that degraded the session to the HPA baseline, by session.", func(s *session) any { return &s.fallbackTotal }},
	{"miras_controller_recovered_total", "Policies restored to control after passing health probes, by session.", func(s *session) any { return &s.recoveredTotal }},
}

// admit is the one way into the registry, shared by create and rehydrate:
// reserve a slot against the session bound (an atomic reserve-then-rollback,
// so the slow build runs under no lock), build the session, and insert it
// under the registry lock, enforcing id uniqueness and registering the
// session's metric series. Any failure releases the slot and returns a
// coded error; no series is touched.
func (s *Server) admit(id string, build func() (*session, error)) (*session, error) {
	if n := s.live.Add(1); n > int64(s.maxSessions) {
		s.live.Add(-1)
		return nil, coded(CodeSessionLimit, fmt.Errorf("session limit %d reached", s.maxSessions))
	}
	sess, err := build()
	if err != nil {
		s.live.Add(-1)
		return nil, err
	}
	sess.id = id
	sess.createdAt = s.now()
	sess.setBounds(sess.create)
	sess.lastAccess.Store(sess.createdAt.UnixNano())
	sess.tracer, sess.windows = s.tracer, s.windowsTotal

	s.registry.mu.Lock()
	defer s.registry.mu.Unlock()
	if s.sessionByID(id) != nil {
		s.live.Add(-1)
		return nil, coded(CodeBadRequest, fmt.Errorf("session %q already exists", id))
	}
	for _, se := range sessionSeries {
		switch p := se.field(sess).(type) {
		case **obs.Gauge:
			*p = s.reg.Gauge(se.name, se.help, "session", id)
		case **obs.Counter:
			*p = s.reg.Counter(se.name, se.help, "session", id)
		}
	}
	sess.syncGauges()
	s.registry.tombs.remove(id)
	s.registry.sessions.Store(id, sess)
	return sess, nil
}

// remove is the one way out of the registry, shared by DELETE, expiry and
// drain: take id out of the registry — only if it is still sess, when sess
// is given, so a concurrent remove or a re-created id is left alone — release
// its slot, and drop its metric series and trace spans. A reason (ttl,
// idle, drain) marks an eviction: the id is tombstoned so later requests
// answer 410, and the eviction is counted; a client DELETE passes "".
// Reports whether this call removed the session.
func (s *Server) remove(id string, sess *session, reason string) bool {
	s.registry.mu.Lock()
	cur := s.sessionByID(id)
	if cur == nil || (sess != nil && cur != sess) {
		s.registry.mu.Unlock()
		return false
	}
	s.registry.sessions.Delete(id)
	if reason != "" {
		s.registry.tombs.add(id)
	}
	s.registry.mu.Unlock()
	s.live.Add(-1)
	for _, se := range sessionSeries {
		s.reg.Remove(se.name, "session", id)
	}
	// Evict the session's spans from the trace ring; the time-series ring
	// prunes its removed registry series on its next sample.
	s.tracer.Ring().DropSession(id)
	if reason != "" {
		s.reg.Counter("miras_sessions_evicted_total",
			"Sessions evicted, by reason (ttl, idle, drain).",
			"reason", reason).Inc()
	}
	return true
}

// lookup resolves the session id the request's path names to a live
// session, handling the full miss ladder (expired → tombstoned → wrong shard
// → not found) and touching the session's idle clock. A hit takes no
// registry lock; callers take the session's own lock before touching its
// state.
func (s *Server) lookup(r *http.Request, id string) (*session, error) {
	sess := s.sessionByID(id)
	if sess == nil {
		return nil, s.miss(r, id)
	}
	now := s.now()
	if reason, exp := sess.expired(now); exp {
		s.evict(sess, reason)
		return nil, coded(CodeSessionExpired, fmt.Errorf("session %q expired", id))
	}
	sess.lastAccess.Store(now.UnixNano()) // the idle clock
	return sess, nil
}

// miss explains an absent id: 410 for an evicted one (the tombstone ring),
// 421 naming the home for one the routing table does not let this process
// accept, else 404. A session present locally is served whatever the table
// says, so rehydrated sessions stay reachable where they were adopted; a
// failover re-route is accepted, so its miss is an honest 404.
func (s *Server) miss(r *http.Request, id string) error {
	s.registry.mu.Lock()
	tomb := s.registry.tombs.has(id)
	s.registry.mu.Unlock()
	switch {
	case tomb:
		return coded(CodeSessionExpired, fmt.Errorf("session %q expired", id))
	case s.table != nil && !s.table.Accepts(s.self, id, r.Header.Get(FailoverHeader)):
		return coded(CodeWrongShard, fmt.Errorf("session %q is owned by shard %s", id, s.table.Home(id)))
	}
	return coded(CodeSessionNotFound, fmt.Errorf("no session %q", id))
}

// evict expires sess: remove it, then spill its snapshot when a spill store
// is configured (best-effort — failures increment miras_spill_errors_total).
// Reports whether this call performed the eviction (false when a concurrent
// evict/delete got there first).
func (s *Server) evict(sess *session, reason string) bool {
	if !s.remove(sess.id, sess, reason) {
		return false
	}
	if s.spillDir != "" {
		_, _ = s.spill(sess, false) // best-effort: a failure is counted
	}
	return true
}

// SweepExpired evicts every session past its TTL or idle bound, returning
// the number evicted. `miras serve` runs this on a ticker; lazy eviction in
// resolve catches the rest.
func (s *Server) SweepExpired() int {
	now := s.now()
	n := 0
	for _, sess := range s.registry.snapshot() {
		if reason, exp := sess.expired(now); exp && s.evict(sess, reason) {
			n++
		}
	}
	return n
}

// sessionByID returns the live session for id, or nil, without taking a
// lock. It does not touch the idle clock and skips the miss ladder.
func (s *Server) sessionByID(id string) *session {
	v, ok := s.registry.sessions.Load(id)
	if !ok {
		return nil
	}
	return v.(*session)
}
