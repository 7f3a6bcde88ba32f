package cluster

// ring is a growable FIFO over a power-of-two buffer: O(1) push at either
// end and pop at the front, and removal of the i-th element in O(i). A
// microservice's queue is a ring of requests, where pushing to the front is
// the crash path's re-delivery to the head; its in-service ledger is a ring
// of entries in dispatch order, where completions mostly remove near the
// front.
type ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int
}

func (r *ring[T]) len() int { return r.n }

// at returns the i-th element from the front; i must be below len.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) pushBack(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

func (r *ring[T]) pushFront(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = x
	r.n++
}

func (r *ring[T]) popFront() T { return r.removeAt(0) }

// removeAt removes and returns the i-th element from the front (i below
// len), shifting the i elements ahead of it back one slot. The vacated slot
// is zeroed so a drained ring does not keep finished work reachable.
func (r *ring[T]) removeAt(i int) T {
	mask := len(r.buf) - 1
	x := r.buf[(r.head+i)&mask]
	for k := i; k > 0; k-- {
		r.buf[(r.head+k)&mask] = r.buf[(r.head+k-1)&mask]
	}
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & mask
	r.n--
	return x
}

// clear empties the ring, keeping its buffer for the next burst. Only the
// occupied slots need zeroing: removal leaves the rest zero.
func (r *ring[T]) clear() {
	if end := r.head + r.n; end <= len(r.buf) {
		clear(r.buf[r.head:end])
	} else {
		clear(r.buf[r.head:])
		clear(r.buf[:end-len(r.buf)])
	}
	r.head, r.n = 0, 0
}

// grow doubles a full ring's buffer, unwrapping its elements to start at 0.
func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
