package netio

import "sync/atomic"

// ringStart is a ring's first allocation in slots. Rings grow on demand:
// a switch has two rings per port and most carry little or no traffic, so
// sizing every ring to the port's depth up front would hold depth × ports
// × 2 slots for nothing.
const ringStart = 32

// ring is a bounded FIFO that starts empty-handed and doubles its storage
// up to max slots. Not safe for concurrent use: the owning port's
// direction mutex guards it.
type ring[T any] struct {
	buf  []T
	head int
	n    int
	max  int
	// keep is the most storage the ring holds on to: storage grown past
	// it serves a burst and is released when the ring drains, so a ring
	// that never holds more than keep entries never reallocates.
	keep int
}

// push appends v, growing the storage if it is full; false means the
// ring holds max entries (tail drop).
func (r *ring[T]) push(v T) bool {
	if r.n == len(r.buf) {
		if r.n >= r.max {
			return false
		}
		size := max(2*len(r.buf), ringStart)
		if len(r.buf) < r.keep {
			size = min(size, r.keep) // a stop at keep, so staying within it never reallocates
		}
		grown := make([]T, min(size, r.max))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
	return true
}

// pop removes the oldest entry, clearing its slot so the ring does not
// keep the frame alive.
func (r *ring[T]) pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	if r.n--; r.n == 0 && len(r.buf) > r.keep {
		r.buf, r.head = nil, 0
	}
	return v, true
}

// queue is one direction of a port (or one RSS queue of its ingress): a
// ring, a lock-free mirror of its occupancy, and the wake channel of
// whoever consumes it.
//
// Wake protocol: a producer that takes the ring from empty to non-empty
// puts one token on wake (cap 1, never blocks); a consumer parks on wake
// only after it found the ring empty, and scans again after every wake.
// A push after the consumer's scan sees an empty ring and therefore sends
// the token the consumer is about to wait for; a token already present
// wakes it just the same. So a frame is never left behind a parked
// consumer. Tokens can be stale (the frame was taken by a non-blocking
// pop), which costs one extra scan.
type queue[T any] struct {
	ring ring[T]
	len  atomic.Int32 // ring.n, readable without the mutex
	wake chan struct{}
}

// signal puts the wake token on ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
