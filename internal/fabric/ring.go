package fabric

// The lock-free release ring keeps Release off the manager mutex
// entirely: an owner parks its handle with one CAS and the flusher
// retires it at the next epoch boundary, where the freed channels are
// visible to the very next scheduling pass.

import "sync/atomic"

// releaseRing is a bounded multi-producer single-consumer queue of
// released handles. Producers (the Release fast path) claim a slot with
// one CAS on tail and publish the handle pointer into it; the single
// consumer — whoever holds m.mu, inside drainReleasesLocked — pops
// until it reaches an empty slot or one a producer has claimed but not
// yet published (that slot is simply picked up by a later drain). A full ring fails the push and the caller falls back to
// the synchronous release path, so the ring never blocks and never
// drops a handle.
type releaseRing struct {
	mask uint64
	head atomic.Uint64 // consumer cursor; advanced only under m.mu
	tail atomic.Uint64 // producer cursor
	slot []atomic.Pointer[Handle]
}

// newReleaseRing rounds the capacity up to a power of two so the slot
// index is a mask, not a modulo.
func newReleaseRing(capacity int) *releaseRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &releaseRing{mask: uint64(size - 1), slot: make([]atomic.Pointer[Handle], size)}
}

// push claims a slot and publishes h, reporting false when the ring is
// full. The claimed slot is always clean: head only advances past slots
// the consumer has already nilled, and the full check keeps tail within
// one lap of head.
func (r *releaseRing) push(h *Handle) bool {
	for {
		tail := r.tail.Load()
		if tail-r.head.Load() > r.mask {
			return false
		}
		if r.tail.CompareAndSwap(tail, tail+1) {
			r.slot[tail&r.mask].Store(h)
			return true
		}
	}
}

// pop returns the next published handle, or nil when the ring is empty
// or the next slot is claimed but not yet published. Single consumer:
// callers hold m.mu.
func (r *releaseRing) pop() *Handle {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil
	}
	s := &r.slot[head&r.mask]
	h := s.Load()
	if h == nil {
		return nil // producer mid-publish; the next drain gets it
	}
	s.Store(nil)
	r.head.Store(head + 1)
	return h
}
