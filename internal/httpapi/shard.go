package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"miras/internal/obs"
)

// tombstoneCap bounds each shard's memory of evicted session ids. A ring
// this size remembers the last 1024 evictions per shard — enough that any
// client still holding an evicted id sees 410 session_expired rather than
// 404, without letting a churny workload grow the set forever.
const tombstoneCap = 1024

// shard is one partition of the session registry: its own map, its own
// lock, its own occupancy gauge, its own tombstone ring. A session id's
// shard is fixed by consistent hashing, so two requests contend on a shard
// lock only when their sessions hash together.
type shard struct {
	idx       int
	mu        sync.RWMutex
	sessions  map[string]*session
	tombs     tombstones
	liveGauge *obs.Gauge
}

func newShard(idx int, reg *obs.Registry) *shard {
	return &shard{
		idx:      idx,
		sessions: make(map[string]*session),
		tombs:    tombstones{set: make(map[string]struct{}, tombstoneCap)},
		liveGauge: reg.Gauge("miras_shard_sessions",
			"Live sessions, by in-process shard.", "shard", strconv.Itoa(idx)),
	}
}

// tombstones is a bounded FIFO memory of evicted session ids, guarded by
// the owning shard's lock.
type tombstones struct {
	ring []string
	next int
	set  map[string]struct{}
}

func (t *tombstones) add(id string) {
	if _, ok := t.set[id]; ok {
		return
	}
	if len(t.ring) < tombstoneCap {
		t.ring = append(t.ring, id)
	} else {
		delete(t.set, t.ring[t.next])
		t.ring[t.next] = id
		t.next = (t.next + 1) % tombstoneCap
	}
	t.set[id] = struct{}{}
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

// shardFor returns the in-process shard owning id.
func (s *Server) shardFor(id string) *shard {
	return s.shards[s.localRing.OwnerIndex(id)]
}

// snapshot returns the shard's live sessions as of now. Sweeps (expiry,
// spill-sync, drain) walk the copy so no registry lock is held while they
// work on a session.
func (sh *shard) snapshot() []*session {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]*session, 0, len(sh.sessions))
	for _, sess := range sh.sessions {
		out = append(out, sess)
	}
	return out
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

// mintID draws the next session id from the shared sequence, skipping ids
// the routing table homes on other processes, so every process walking the
// same sequence mints from disjoint namespaces without coordination.
func (s *Server) mintID() string {
	for {
		id := "s" + strconv.FormatInt(s.nextID.Add(1), 10)
		if s.table == nil || s.table.Accepts(s.self, id, "") {
			return id
		}
	}
}

// admit is the one way into the registry, shared by create and rehydrate:
// reserve a slot against the global bound (an atomic reserve-then-rollback,
// so admissions on different shards never share a lock), mint the id when
// none is given, register the per-session fault series build needs, build
// the emulated system, and insert under the shard lock, enforcing id
// uniqueness and the per-shard bound. build returns the session's
// build-specific fields (env, generator, create, and for a rehydrate the
// replayed windows/ops/policy); admit fills in the rest. Any failure rolls
// the slot and the series back and reports the code to answer with.
func (s *Server) admit(id string, build func(faultsTotal, crashed *obs.Counter) (*session, ErrorCode, error)) (*session, ErrorCode, error) {
	if n := s.live.Add(1); n > int64(s.maxSessions) {
		s.live.Add(-1)
		return nil, CodeSessionLimit, fmt.Errorf("session limit %d reached", s.maxSessions)
	}
	if id == "" {
		id = s.mintID()
	}
	// rollback undoes the reservation; the series are dropped too unless a
	// live session under the same id turned out to own them.
	rollback := func(dropSeries bool) {
		if dropSeries {
			s.reg.Remove("miras_faults_total", "session", id)
			s.reg.Remove("miras_consumers_crashed", "session", id)
		}
		s.live.Add(-1)
		s.sessionsLive.Set(float64(s.live.Load()))
	}
	faultsTotal := s.reg.Counter("miras_faults_total",
		"Fault events injected (episode activations and consumer crashes), by session.",
		"session", id)
	crashed := s.reg.Counter("miras_consumers_crashed",
		"Consumers killed by fault injection, by session.",
		"session", id)
	sess, code, err := build(faultsTotal, crashed)
	if err != nil {
		rollback(s.sessionByID(id) == nil)
		return nil, code, err
	}
	sess.id = id
	sess.ensemble = sess.create.Ensemble
	sess.createdAt = s.now()
	sess.ttl = time.Duration(sess.create.TTLSeconds * float64(time.Second))
	sess.idle = time.Duration(sess.create.IdleTimeoutSeconds * float64(time.Second))
	sess.profiler = s.profiler
	sess.faultsTotal, sess.crashed = faultsTotal, crashed
	sess.touch(sess.createdAt)

	sh := s.shardFor(id)
	sess.shardIdx = sh.idx
	sh.mu.Lock()
	if _, exists := sh.sessions[id]; exists {
		sh.mu.Unlock()
		rollback(false)
		return nil, CodeBadRequest, fmt.Errorf("session %q already exists", id)
	}
	if s.maxPerShard > 0 && len(sh.sessions) >= s.maxPerShard {
		sh.mu.Unlock()
		rollback(true)
		return nil, CodeSessionLimit,
			fmt.Errorf("shard %d session limit %d reached", sh.idx, s.maxPerShard)
	}
	sess.wip = s.reg.Gauge("miras_env_wip",
		"Total work-in-progress (queued + in-service tasks), by session.",
		"session", id)
	sess.inflight = s.reg.Gauge("miras_cluster_inflight",
		"Live (incomplete) workflow instances, by session.",
		"session", id)
	sess.fallbackTotal = s.reg.Counter("miras_controller_fallback_total",
		"Policy failures that degraded the session to the HPA baseline, by session.",
		"session", id)
	sess.recoveredTotal = s.reg.Counter("miras_controller_recovered_total",
		"Policies restored to control after passing health probes, by session.",
		"session", id)
	sh.tombs.remove(id)
	sh.sessions[id] = sess
	sh.liveGauge.Set(float64(len(sh.sessions)))
	sh.mu.Unlock()
	sess.syncGauges()
	s.sessionsLive.Set(float64(s.live.Load()))
	return sess, "", nil
}

// remove is the one way out of the registry, shared by DELETE, expiry and
// drain: take id out of its shard — only if it is still sess, when sess is
// given, so a concurrent remove or a re-created id is left alone — release
// its slot, and drop its metric series and trace spans. A reason (ttl,
// idle, drain) marks an eviction: the id is tombstoned so later requests
// answer 410, and the eviction is counted; a client DELETE passes "".
// Reports whether this call removed the session.
func (s *Server) remove(sh *shard, id string, sess *session, reason string) bool {
	sh.mu.Lock()
	cur, ok := sh.sessions[id]
	if !ok || (sess != nil && cur != sess) {
		sh.mu.Unlock()
		return false
	}
	delete(sh.sessions, id)
	if reason != "" {
		sh.tombs.add(id)
	}
	sh.liveGauge.Set(float64(len(sh.sessions)))
	sh.mu.Unlock()
	s.live.Add(-1)
	s.sessionsLive.Set(float64(s.live.Load()))
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
			"Sessions evicted, by shard and reason (ttl, idle, drain).",
			"shard", strconv.Itoa(sh.idx), "reason", reason).Inc()
	}
	return true
}

// lookup resolves the request's {id} to a live session, handling the full
// miss ladder (expired → tombstoned → wrong shard → not found) and
// touching the session's idle clock. The shard lock is released before
// returning; callers take the session's own lock before touching its
// state.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sh := s.shardFor(id)
	sh.mu.RLock()
	sess, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		s.writeMiss(w, r, sh, id)
		return nil, false
	}
	now := s.now()
	if reason, exp := sess.expired(now); exp {
		s.evict(sh, sess, reason)
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
func (s *Server) writeMiss(w http.ResponseWriter, r *http.Request, sh *shard, id string) {
	sh.mu.RLock()
	tomb := sh.tombs.has(id)
	sh.mu.RUnlock()
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
func (s *Server) evict(sh *shard, sess *session, reason string) bool {
	if !s.remove(sh, sess.id, sess, reason) {
		return false
	}
	if s.spillDir != "" {
		if err := s.spill(sess); err != nil {
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
	for _, sh := range s.shards {
		for _, sess := range sh.snapshot() {
			if reason, exp := sess.expired(now); exp && s.evict(sh, sess, reason) {
				n++
			}
		}
	}
	return n
}

// sessionByID returns the live session for id, or nil. It does not touch
// the idle clock and skips the miss ladder — registry access for tests and
// the rehydrate duplicate check.
func (s *Server) sessionByID(id string) *session {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[id]
}
