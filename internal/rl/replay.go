// Package rl implements the reinforcement-learning machinery MIRAS builds
// on: a replay buffer, the DDPG actor–critic algorithm (Lillicrap et al.,
// 2016) over the paper's softmax action parameterisation, and the
// parameter-space exploration noise of Plappert et al. (2018) that §IV-D
// adopts because action-space noise keeps violating the consumer-budget
// constraint.
package rl

import (
	"fmt"
	"math/rand"

	"miras/internal/mat"
)

// Experience is one transition observed by the agent. Action is the
// simplex vector the actor emitted (pre-floor), so the critic learns in the
// same action space the actor outputs.
type Experience struct {
	State  []float64
	Action []float64
	Next   []float64
	Reward float64
	// Done marks the end of an episode (rollout horizon). The paper's
	// horizons are time limits rather than true terminal states, so the
	// critic still bootstraps across them; Done is kept for bookkeeping.
	Done bool
}

// ReplayBuffer is a fixed-capacity ring buffer of experiences with uniform
// sampling. Its slots grow as experiences arrive rather than being
// allocated up front: the default 100 000 empty slots would be 8 MB that
// every new agent zeroes and every garbage collection scans.
type ReplayBuffer struct {
	buf      []Experience
	capacity int
	next     int
	full     bool
}

// NewReplayBuffer returns a buffer holding at most capacity experiences.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity must be positive, got %d", capacity))
	}
	return &ReplayBuffer{capacity: capacity}
}

// Add stores e, copying its slices, evicting the oldest experience when
// full.
func (b *ReplayBuffer) Add(e Experience) { b.add(e) }

// add is Add, returning the slot e was stored in.
func (b *ReplayBuffer) add(e Experience) int {
	stored := Experience{
		State:  mat.VecClone(e.State),
		Action: mat.VecClone(e.Action),
		Next:   mat.VecClone(e.Next),
		Reward: e.Reward,
		Done:   e.Done,
	}
	if len(b.buf) < b.capacity {
		b.buf = append(b.buf, stored)
		return len(b.buf) - 1
	}
	b.full = true
	slot := b.next
	b.buf[slot] = stored
	b.next = (b.next + 1) % b.capacity
	return slot
}

// Len returns the number of stored experiences.
func (b *ReplayBuffer) Len() int { return len(b.buf) }

// Cap returns the buffer capacity.
func (b *ReplayBuffer) Cap() int { return b.capacity }

// Sample fills batch with uniformly sampled experiences (with
// replacement). It panics on an empty buffer.
func (b *ReplayBuffer) Sample(rng *rand.Rand, batch []Experience) {
	b.sample(rng, batch, nil)
}

// sample is Sample, also writing each draw's slot into slots when slots is
// not nil (it must then be as long as batch).
func (b *ReplayBuffer) sample(rng *rand.Rand, batch []Experience, slots []int) {
	if len(b.buf) == 0 {
		panic("rl: sampling from empty replay buffer")
	}
	for i := range batch {
		j := rng.Intn(len(b.buf))
		batch[i] = b.buf[j]
		if slots != nil {
			slots[i] = j
		}
	}
}
