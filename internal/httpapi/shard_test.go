package httpapi

import (
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
