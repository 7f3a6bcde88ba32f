package shardring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i+1)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := New([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty member name accepted")
	}
	if _, err := New([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestOwnerDeterministic(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(500) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("key %q: owner differs across identically built rings", k)
		}
		if r1.members[r1.ownerIndex(k)] != r1.Owner(k) {
			t.Fatalf("key %q: ownerIndex and Owner disagree", k)
		}
	}
}

// TestBalance checks the virtual-node construction spreads keys roughly
// evenly: with 64 vnodes per member, no member of a 4-member ring should
// own more than twice its fair share of 4000 sequential session ids.
func TestBalance(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 4000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	fair := n / len(members)
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns no keys: %v", m, counts)
		}
		if counts[m] > 2*fair {
			t.Fatalf("member %s owns %d of %d keys (fair %d): ring badly skewed %v",
				m, counts[m], n, fair, counts)
		}
	}
}

// TestRemovalStability is the consistent-hashing property itself: dropping
// one member may only remap the keys that member owned. Every key owned by
// a surviving member must keep its owner.
func TestRemovalStability(t *testing.T) {
	full := []string{"a", "b", "c", "d"}
	rFull, err := New(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	rLess, err := New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved, kept := 0, 0
	for _, k := range keys(2000) {
		before := rFull.Owner(k)
		after := rLess.Owner(k)
		if before == "d" {
			moved++
			continue // d's keys must land somewhere else; any owner is fine
		}
		if before != after {
			t.Fatalf("key %q moved %s -> %s though its owner survived", k, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestSequentialIDSpread pins the avalanche finalizer in Hash: the ids the
// server actually mints are sequential ("s1", "s2", …), and raw FNV-1a
// piles such keys onto one or two members. Every member of an 8-member
// ring must own some of 100 sequential ids.
func TestSequentialIDSpread(t *testing.T) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("shard-%d", i)
	}
	r, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, k := range keys(100) {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns none of 100 sequential ids: %v", m, counts)
		}
	}
}
