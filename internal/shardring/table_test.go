package shardring

import (
	"reflect"
	"testing"
)

// servingCensus maps each member to the homes (member-list order) whose keys
// Serving sends to it — the inverse HomesServedBy must reproduce.
func servingCensus(t *Table, ks []string) map[string][]string {
	seen := map[string]map[string]bool{}
	for _, k := range ks {
		member, home := t.Serving(k)
		if seen[member] == nil {
			seen[member] = map[string]bool{}
		}
		seen[member][home] = true
	}
	out := map[string][]string{}
	for _, m := range t.ring.members {
		for _, h := range t.ring.members {
			if seen[m][h] {
				out[m] = append(out[m], h)
			}
		}
	}
	return out
}

// TestTableProperties pins the routing table's contract: the identity table
// is the ring; Reassign is copy-on-write; reassignments compose (a home
// adopted by a member that later fails moves on with it); no sequence of
// rows can make a lookup loop; HomesServedBy inverts Serving.
func TestTableProperties(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	a, b, c, d := members[0], members[1], members[2], members[3]
	ks := keys(10000)
	base, err := NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}

	// No reassignments: Serving, Home and the bare ring agree on every key.
	for _, k := range ks {
		member, home := base.Serving(k)
		if want := ring.Owner(k); member != want || home != want || base.Home(k) != want {
			t.Fatalf("key %q: Serving=(%q,%q) Home=%q, ring owner %q", k, member, home, base.Home(k), want)
		}
	}

	// Reassign leaves the receiver untouched and moves exactly a's keys.
	ab := base.Reassign(a, b)
	for _, k := range ks {
		if member, _ := base.Serving(k); member != ring.Owner(k) {
			t.Fatalf("key %q: Reassign mutated its receiver", k)
		}
		member, home := ab.Serving(k)
		want := ring.Owner(k)
		if home != want {
			t.Fatalf("key %q: a reassignment changed the home to %q", k, home)
		}
		if want == a {
			want = b
		}
		if member != want {
			t.Fatalf("key %q homed on %q served by %q after a→b, want %q", k, home, member, want)
		}
	}
	if got := ab.ServingHome(a); got != b {
		t.Fatalf("ServingHome(a) = %q after a→b", got)
	}

	// Chains are followed: b adopted a, then b fails over to c — a's keys
	// go with it, and c is told to take over both homes.
	if got := ab.HomesServedBy(b); !reflect.DeepEqual(got, []string{a, b}) {
		t.Fatalf("HomesServedBy(b) = %v after a→b, want [a b]", got)
	}
	abc := ab.Reassign(b, c)
	for _, k := range ks {
		member, home := abc.Serving(k)
		want := c // a's keys (the first victim's) included
		if home == d {
			want = d
		}
		if member != want {
			t.Fatalf("key %q homed on %q served by %q after a→b→c, want %q", k, home, member, want)
		}
	}
	if got := abc.HomesServedBy(b); got != nil {
		t.Fatalf("dead b still serves %v", got)
	}

	// A cycle terminates — it cannot even be written down: closing the loop
	// c→a hands every home a ever lost back to a, its own included.
	loop := abc.Reassign(c, a)
	for _, k := range ks {
		member, home := loop.Serving(k)
		want := a
		if home == d {
			want = d
		}
		if member != want {
			t.Fatalf("key %q homed on %q served by %q after a→b→c→a, want %q", k, home, member, want)
		}
	}
	if got := loop.ServingHome(a); got != a {
		t.Fatalf("fail-back left a served by %q", got)
	}

	// HomesServedBy is the inverse of Serving, on every table built above.
	for name, tab := range map[string]*Table{"identity": base, "a→b": ab, "a→b→c": abc, "loop": loop} {
		census := servingCensus(tab, ks)
		for _, m := range members {
			if got := tab.HomesServedBy(m); !reflect.DeepEqual(got, census[m]) {
				t.Fatalf("%s: HomesServedBy(%q) = %v, Serving says %v", name, m, got, census[m])
			}
		}
	}

	// Unknown members change nothing and serve nothing.
	if base.Reassign("http://nope", a) != base || base.Reassign(a, "http://nope") != base {
		t.Fatal("Reassign with an unknown member built a new table")
	}
	if base.ServingHome("http://nope") != "" || base.HomesServedBy("http://nope") != nil {
		t.Fatal("unknown member serves something")
	}
}

// TestTableAccepts is the shard-side view: a process accepts the ids it
// serves per the table, plus ids whose home the request names as failed
// over — and nothing else.
func TestTableAccepts(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	a, b := members[0], members[1]
	tab, err := NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	adopted := tab.Reassign(b, a) // what take_over: [b] builds on a
	for _, k := range keys(2000) {
		home := tab.Home(k)
		if got := tab.Accepts(a, k, ""); got != (home == a) {
			t.Fatalf("key %q homed on %q: Accepts(a) = %v", k, home, got)
		}
		if got := tab.Accepts(a, k, b); got != (home == a || home == b) {
			t.Fatalf("key %q homed on %q: Accepts(a, from b) = %v", k, home, got)
		}
		if got := tab.Accepts(a, k, a); got != (home == a) {
			t.Fatalf("key %q homed on %q: naming self as the failed home bypassed the check", k, home)
		}
		if got := adopted.Accepts(a, k, ""); got != (home == a || home == b) {
			t.Fatalf("key %q homed on %q: Accepts(a) = %v after b→a", k, home, got)
		}
	}
}
