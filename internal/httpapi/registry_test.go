package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// An id evicted, rehydrated and evicted again is one of the last
// tombstoneCap evictions until tombstoneCap later ones push it out; the
// overwrite of the slot its first eviction left behind must not forget it.
func TestTombstoneKeepsReEvictedID(t *testing.T) {
	tombs := tombstones{set: make(map[string]int)}
	tombs.add("s1")
	tombs.remove("s1") // rehydrated
	tombs.add("s1")    // evicted again
	for i := 0; i < tombstoneCap-1; i++ {
		tombs.add("x" + strconv.Itoa(i))
		if !tombs.has("s1") {
			t.Fatalf("s1 forgotten after %d later evictions; the last %d evictions must all be remembered", i+1, tombstoneCap)
		}
	}
	tombs.add("last")
	if tombs.has("s1") {
		t.Fatalf("s1 still remembered after %d later evictions", tombstoneCap)
	}
	if len(tombs.set) != tombstoneCap {
		t.Fatalf("%d ids remembered, want %d", len(tombs.set), tombstoneCap)
	}
}

// An evicted id answers 410 for exactly the next tombstoneCap-1 evictions
// in the whole process, and 404 once one more pushes it out of the ring.
// The evictions go through remove, the registry's one way out, with stub
// sessions stored in the registry.
func TestTombstoneWindowIsProcessWide(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	evict := func(id string) {
		sess := &session{id: id}
		srv.registry.sessions.Store(id, sess)
		srv.live.Add(1)
		if !srv.remove(id, sess, "ttl") {
			t.Fatalf("remove(%q) removed nothing", id)
		}
	}
	status := func(id string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
		return rec.Code
	}
	evict("s1")
	for i := 2; i <= tombstoneCap; i++ {
		evict("s" + strconv.Itoa(i))
	}
	if got := status("s1"); got != http.StatusGone {
		t.Fatalf("s1 after %d later evictions: status %d, want 410", tombstoneCap-1, got)
	}
	evict("s" + strconv.Itoa(tombstoneCap+1))
	if got := status("s1"); got != http.StatusNotFound {
		t.Fatalf("s1 after %d later evictions: status %d, want 404", tombstoneCap, got)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("SessionCount=%d after every stub was evicted, want 0", n)
	}
}
