package httpapi

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
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

// accepts reports whether this process may serve id for r, asking the
// routing table (a server without one accepts everything). When not, it
// writes the 421 wrong_shard refusal naming id's home, so routers and
// clients can follow, and returns false.
func (s *Server) accepts(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.table == nil || s.table.Accepts(s.self, id, r.Header.Get(FailoverHeader)) {
		return true
	}
	writeError(w, http.StatusMisdirectedRequest, CodeWrongShard,
		fmt.Errorf("session %q is owned by shard %s", id, s.table.Home(id)))
	return false
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

// admit is the one way into the registry, shared by create and rehydrate:
// reserve a slot against the session bound (an atomic reserve-then-rollback,
// so the slow build runs under no lock), build the emulated system, and
// insert under the registry lock, enforcing id uniqueness and registering
// the session's metric series.
// build returns the session's build-specific fields (env, create, and for a
// rehydrate the policy); admit fills in the rest. Any failure releases the
// slot and reports the code to answer with; no series is touched.
func (s *Server) admit(id string, build func() (*session, ErrorCode, error)) (*session, ErrorCode, error) {
	if n := s.live.Add(1); n > int64(s.maxSessions) {
		s.live.Add(-1)
		return nil, CodeSessionLimit, fmt.Errorf("session limit %d reached", s.maxSessions)
	}
	sess, code, err := build()
	if err != nil {
		s.live.Add(-1)
		return nil, code, err
	}
	sess.id = id
	sess.createdAt = s.now()
	sess.ttl = time.Duration(sess.create.TTLSeconds * float64(time.Second))
	sess.idle = time.Duration(sess.create.IdleTimeoutSeconds * float64(time.Second))
	sess.touch(sess.createdAt)

	s.registry.mu.Lock()
	if s.sessionByID(id) != nil {
		s.registry.mu.Unlock()
		s.live.Add(-1)
		return nil, CodeBadRequest, fmt.Errorf("session %q already exists", id)
	}
	sess.wip = s.reg.Gauge("miras_env_wip",
		"Total work-in-progress (queued + in-service tasks), by session.",
		"session", id)
	sess.inflight = s.reg.Gauge("miras_cluster_inflight",
		"Live (incomplete) workflow instances, by session.",
		"session", id)
	sess.faultsTotal = s.reg.Counter("miras_faults_total",
		"Fault events injected (episode activations and consumer crashes), by session.",
		"session", id)
	sess.crashed = s.reg.Counter("miras_consumers_crashed",
		"Consumers killed by fault injection, by session.",
		"session", id)
	sess.fallbackTotal = s.reg.Counter("miras_controller_fallback_total",
		"Policy failures that degraded the session to the HPA baseline, by session.",
		"session", id)
	sess.recoveredTotal = s.reg.Counter("miras_controller_recovered_total",
		"Policies restored to control after passing health probes, by session.",
		"session", id)
	s.registry.tombs.remove(id)
	s.registry.sessions.Store(id, sess)
	s.registry.mu.Unlock()
	sess.syncGauges()
	return sess, "", nil
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
	for _, series := range []string{"miras_env_wip", "miras_cluster_inflight",
		"miras_faults_total", "miras_consumers_crashed",
		"miras_controller_fallback_total", "miras_controller_recovered_total"} {
		s.reg.Remove(series, "session", id)
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

// lookup resolves the session id the request's path names to a live session, handling the full
// miss ladder (expired → tombstoned → wrong shard → not found) and
// touching the session's idle clock. A hit takes no registry lock; callers
// take the session's own lock before touching its state.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, id string) (*session, bool) {
	sess := s.sessionByID(id)
	if sess == nil {
		s.writeMiss(w, r, id)
		return nil, false
	}
	now := s.now()
	if reason, exp := sess.expired(now); exp {
		s.evict(sess, reason)
		writeError(w, http.StatusGone, CodeSessionExpired,
			fmt.Errorf("session %q expired", id))
		return nil, false
	}
	sess.touch(now)
	return sess, true
}

// writeMiss explains an absent id: evicted sessions answer 410 from the
// tombstone ring; ids the routing table does not let this process accept
// answer 421 (see accepts); everything else is a plain 404. A session
// present locally is always served, whatever the table says — rehydrated
// sessions must stay reachable wherever they were adopted. A failover
// re-route is accepted, so its miss is an honest 404: this process is the
// id's home while the owner is down.
func (s *Server) writeMiss(w http.ResponseWriter, r *http.Request, id string) {
	s.registry.mu.Lock()
	tomb := s.registry.tombs.has(id)
	s.registry.mu.Unlock()
	if tomb {
		writeError(w, http.StatusGone, CodeSessionExpired,
			fmt.Errorf("session %q expired", id))
		return
	}
	if !s.accepts(w, r, id) {
		return
	}
	writeError(w, http.StatusNotFound, CodeSessionNotFound,
		fmt.Errorf("no session %q", id))
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
		if _, err := s.spill(sess, false); err != nil {
			s.spillErrors.Inc()
		}
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
