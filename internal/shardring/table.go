package shardring

// Table is the fleet's routing table: the ring, which fixes every session
// id's home member, plus one reassignment row per member saying who serves
// that member's ids right now. It is the only code that knows how placement
// works — `miras route` swaps one in an atomic pointer on failover, and a
// shard process consults one (built from its -members list) to decide
// whether a request belongs to it.
//
// A row "home → member" reads "ids whose ring home is home are served by
// member". With no failover every row is the identity. Rows are kept
// resolved — Reassign moves every home the failed member was serving, its
// adopted ones included — so a lookup is one ring search and one slice
// index, never a chain walk, and a cycle cannot be represented.
//
// Tables are immutable: Reassign returns a new table and leaves the
// receiver untouched, so lookups are lock-free and a table read once is a
// consistent snapshot.
type Table struct {
	ring    *Ring
	serving []int // serving[home index] = index of the member serving it
}

// NewTable builds the identity table over members (the ring member list,
// DefaultVirtualNodes points each).
func NewTable(members []string) (*Table, error) {
	ring, err := New(members, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{ring: ring, serving: make([]int, len(members))}
	for i := range t.serving {
		t.serving[i] = i
	}
	return t, nil
}

// index returns member's position in the member list, or -1.
func (t *Table) index(member string) int {
	for i, m := range t.ring.members {
		if m == member {
			return i
		}
	}
	return -1
}

// Home returns the member the ring assigns id to — where the id lives when
// nothing has failed.
func (t *Table) Home(id string) string { return t.ring.Owner(id) }

// Serving returns the member serving id right now and id's ring home; the
// two differ exactly when a reassignment row is in force for the home.
func (t *Table) Serving(id string) (member, home string) {
	h := t.ring.OwnerIndex(id)
	return t.ring.members[t.serving[h]], t.ring.members[h]
}

// ServingHome returns the member serving the ids homed on home ("" when
// home is not a member).
func (t *Table) ServingHome(home string) string {
	h := t.index(home)
	if h < 0 {
		return ""
	}
	return t.ring.members[t.serving[h]]
}

// HomesServedBy returns the homes whose ids member serves, in member-list
// order: itself unless it has been reassigned away, plus every home it
// adopted. It is the inverse of Serving, and what a fallback must take
// over when member dies.
func (t *Table) HomesServedBy(member string) []string {
	var homes []string
	if m := t.index(member); m >= 0 {
		for h, s := range t.serving {
			if s == m {
				homes = append(homes, t.ring.members[h])
			}
		}
	}
	return homes
}

// Reassign returns a table in which every home from was serving is served
// by to. Reassigning a home back to itself drops the row (fail-back). An
// unknown member leaves the table as it is.
func (t *Table) Reassign(from, to string) *Table {
	f, d := t.index(from), t.index(to)
	if f < 0 || d < 0 || f == d {
		return t
	}
	next := &Table{ring: t.ring, serving: append([]int(nil), t.serving...)}
	for h, s := range next.serving {
		if s == f {
			next.serving[h] = d
		}
	}
	return next
}

// Accepts is the shard-side question: should the process self serve id?
// Yes when the table says self serves it, or when the request names id's
// home in failoverFrom — the stateless wire form of a reassignment row,
// sent by a router that has re-routed the home to self (shard tables carry
// no rows of their own, so this still holds after the fallback restarts).
func (t *Table) Accepts(self, id, failoverFrom string) bool {
	member, home := t.Serving(id)
	return member == self || (failoverFrom != "" && home == failoverFrom)
}
