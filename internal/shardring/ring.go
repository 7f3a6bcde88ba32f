// Package shardring implements the consistent-hash ring that decides which
// shard owns a session id. The same ring runs in two places: inside one
// `miras serve` process it spreads sessions over the in-process shards, and
// inside `miras route` it picks the shard *process* a request must be
// forwarded to. Both sides compute ownership from nothing but the member
// list and the id — there is no gossip, no coordination, and no state to
// reconcile: any party holding the same member list derives the same owner.
//
// The ring is the classic Karger construction: every member is hashed onto
// a 64-bit circle at V virtual points (FNV-1a over "member#v"), a key is
// hashed onto the same circle, and the key's owner is the member whose
// point follows the key clockwise. Removing a member remaps only the keys
// that member owned; all other assignments are untouched — the property
// that makes drain-and-rehydrate a local operation instead of a full
// reshuffle.
//
// Rings are immutable after New, so lookups are lock-free and safe for
// concurrent use. Table (table.go) adds the failover reassignment rows on
// top and is what the router and the shard processes actually consult.
package shardring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual point count used when New
// is given a non-positive vnodes. 64 points per member keeps the maximum
// member load within a few percent of uniform for small member counts
// while the ring stays tiny (64·N points).
const DefaultVirtualNodes = 64

// point is one virtual node: a position on the hash circle and the index
// of the member that owns it.
type point struct {
	hash   uint64
	member int
}

// Ring maps keys to members by consistent hashing. The zero value is not
// usable; construct with New.
type Ring struct {
	members []string
	points  []point // sorted by hash ascending
}

// New builds a ring over members with vnodes virtual points each
// (DefaultVirtualNodes when vnodes <= 0). Members must be non-empty and
// unique — duplicate members would silently double a shard's share.
func New(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("shardring: no members")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]point, 0, len(members)*vnodes),
	}
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("shardring: empty member name at index %d", i)
		}
		if seen[m] {
			return nil, fmt.Errorf("shardring: duplicate member %q", m)
		}
		seen[m] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:   Hash(fmt.Sprintf("%s#%d", m, v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on member index so the ring is deterministic even in
		// the astronomically unlikely event of a 64-bit hash collision.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// Hash is the ring's key hash: 64-bit FNV-1a finished with a MurmurHash3
// fmix64 avalanche. Raw FNV-1a has no final mixing, so keys sharing a
// prefix and differing in a trailing character — exactly the shape of
// sequential session ids like "s41"/"s42" — land within a sliver of the
// 64-bit circle and pile onto one or two members; the finalizer spreads
// every bit of difference across the word. Exported so tests and tools can
// reason about placement without re-implementing it.
func Hash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// OwnerIndex returns the index (into the construction member list) of the
// member owning key.
func (r *Ring) OwnerIndex(key string) int {
	h := Hash(key)
	// First point clockwise from h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owner returns the member name owning key.
func (r *Ring) Owner(key string) string {
	return r.members[r.OwnerIndex(key)]
}

// Members returns the construction member list (a copy).
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }
