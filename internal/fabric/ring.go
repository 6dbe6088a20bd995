package fabric

// Lock-decoupled hot-path structures. The release ring keeps Release
// off the manager mutex entirely: an owner parks its handle with one
// CAS and the flusher retires it at the next epoch boundary, where the
// freed channels are visible to the very next scheduling pass. The
// sharded histogram rings keep stats recording and the Stats snapshot
// from serializing against each other: recording locks one stripe, and
// the expensive percentile pass runs outside every lock.

import (
	"sync"
	"sync/atomic"
)

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

// histShards is the stripe count of a shardedRing. Four stripes are
// plenty: the writers are the flusher and the repair verdicts, and the
// point is that a Stats snapshot never holds more than one stripe at a
// time.
const histShards = 4

// shardedRing is a sample distribution striped across histShards
// independently locked rings. add locks one stripe chosen round-robin;
// snapshot copies stripes one at a time, so summarizing (sorting,
// percentiles) in distOf happens outside every lock and recording is
// never blocked behind a slow snapshot.
type shardedRing struct {
	next  atomic.Uint64
	shard [histShards]struct {
		mu sync.Mutex
		r  ring
	}
}

// newShardedRing splits the capacity evenly across the stripes.
func newShardedRing(capacity int) *shardedRing {
	s := &shardedRing{}
	per := (capacity + histShards - 1) / histShards
	for i := range s.shard {
		s.shard[i].r = newRing(per)
	}
	return s
}

// add records one observation in the next stripe.
func (s *shardedRing) add(x float64) {
	sh := &s.shard[s.next.Add(1)%histShards]
	sh.mu.Lock()
	sh.r.add(x)
	sh.mu.Unlock()
}

// snapshot merges the retained samples of every stripe. The merged
// order is not chronological; distOf sorts where order matters.
func (s *shardedRing) snapshot() []float64 {
	var out []float64
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		out = append(out, sh.r.samples()...)
		sh.mu.Unlock()
	}
	return out
}
