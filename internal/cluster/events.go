package cluster

// The cluster schedules its two hot events — a task completion and a
// container start — through sim.Engine.ScheduleCall under the handler ID it
// registered in New, so the engine stores no closure and allocates nothing
// per event.
// The event's uint64 argument packs
//
//	bit 0           kind (evComplete or evStart)
//	bits 1–16       service index
//	bits 17–63      token, unique over the cluster's lifetime
//
// An event is live while its token sits in the service's inService or
// pendingStarts list. Withdrawing one (a crash, a scale-down, Clear) drops
// the token; the record still pops in its (at, seq) slot, so it never
// reorders a live event, and fires as a no-op that draws no RNG.

const (
	evComplete uint64 = 0
	evStart    uint64 = 1

	serviceBits = 16
	maxServices = 1 << serviceBits
)

// clusterEvents is the cluster's sim.Handler: the same struct under a second
// method set, so Fire stays off the Cluster API and the conversion from
// *Cluster is free.
type clusterEvents Cluster

// Fire implements sim.Handler.
func (h *clusterEvents) Fire(arg uint64) {
	c := (*Cluster)(h)
	j := int(arg >> 1 & (maxServices - 1))
	tok := arg >> (1 + serviceBits)
	if arg&1 == evStart {
		c.consumerUp(j, tok)
	} else {
		c.completed(j, tok)
	}
}

// schedule arranges an event of the given kind for microservice j after
// delay and returns its token.
func (c *Cluster) schedule(delay float64, kind uint64, j int) uint64 {
	c.lastToken++
	c.engine.ScheduleCall(delay, c.events, c.lastToken<<(1+serviceBits)|uint64(j)<<1|kind)
	return c.lastToken
}
