package fabric

// Tests for the low-latency admission pipeline: the pooled-ticket
// zero-allocation guarantee on the Connect enqueue path, release-ring
// wraparound and exactly-once drain, ticket cancellation racing the
// pool, and exactly-once verdict delivery.
// ci runs this package under -race -count=2, which is where the
// concurrency assertions bite.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestConnectEnqueueZeroAllocs is the regression guard for the pooled
// admission path: one acquire + pooled ticket + enqueue must not
// allocate at steady state. The flusher is parked (huge BatchSize,
// hour MaxWait), so the test plays the epoch's part by hand: swap the
// queue out, claim the ticket, return the slot, recycle — exactly the
// bookkeeping flushLocked and the Connect receive path perform, minus
// scheduling (which allocates the Handle and is not the enqueue path).
func TestConnectEnqueueZeroAllocs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1 << 20, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.acquireSlot(ctx, nil); err != nil {
			t.Fatal(err)
		}
		tk := m.getTicket(0, 5)
		if ok, _ := m.enqueue(tk); !ok {
			t.Fatal("enqueue refused on an open manager")
		}
		m.qmu.Lock()
		m.pending = m.pending[:0]
		m.qdepth.Store(0)
		m.qmu.Unlock()
		m.releaseSlots(1)
		if !tk.state.CompareAndSwap(ticketWaiting, ticketClaimed) {
			t.Fatal("ticket not in waiting state")
		}
		m.putTicket(tk)
	})
	if allocs != 0 {
		t.Errorf("Connect enqueue path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReleaseRingWraparoundFull drives the ring through several full
// laps: a full ring must refuse the push (the caller degrades to the
// synchronous release path) and the mask arithmetic must stay correct
// as head and tail wrap.
func TestReleaseRingWraparoundFull(t *testing.T) {
	const capacity = 4
	r := newReleaseRing(capacity)
	hs := make([]*Handle, capacity+1)
	for i := range hs {
		hs[i] = &Handle{}
	}
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < capacity; i++ {
			if !r.push(hs[i]) {
				t.Fatalf("lap %d: push %d refused on a non-full ring", lap, i)
			}
		}
		if r.push(hs[capacity]) {
			t.Fatalf("lap %d: push accepted on a full ring", lap)
		}
		for i := 0; i < capacity; i++ {
			if got := r.pop(); got != hs[i] {
				t.Fatalf("lap %d: pop %d = %p, want %p (FIFO)", lap, i, got, hs[i])
			}
		}
		if got := r.pop(); got != nil {
			t.Fatalf("lap %d: pop on empty ring = %p, want nil", lap, got)
		}
	}
}

// TestReleaseRingConcurrentExactlyOnce hammers the ring with concurrent
// producers while a single consumer (holding its own lock, as m.mu is
// for the manager) drains it, and checks every handle comes out
// exactly once. Producers whose push finds the ring full retry — the
// manager's fallback is releaseSlow, but for the ring invariant what
// matters is that no accepted handle is ever lost or duplicated.
func TestReleaseRingConcurrentExactlyOnce(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
	)
	r := newReleaseRing(16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				h := &Handle{src: p, dst: i}
				for !r.push(h) {
					time.Sleep(time.Microsecond) // full: wait for the consumer
				}
			}
		}(p)
	}
	var cmu sync.Mutex // the consumer lock, as m.mu is for the manager
	seen := make(map[*Handle]int)
	popped := 0
	for popped < producers*perProd {
		cmu.Lock()
		h := r.pop()
		cmu.Unlock()
		if h == nil {
			time.Sleep(time.Microsecond)
			continue
		}
		seen[h]++
		popped++
	}
	wg.Wait()
	if got := r.pop(); got != nil {
		t.Fatalf("ring not empty after draining all pushes: %p", got)
	}
	for h, n := range seen {
		if n != 1 {
			t.Fatalf("handle %d→%d drained %d times, want exactly once", h.src, h.dst, n)
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("drained %d distinct handles, want %d", len(seen), producers*perProd)
	}
}

// TestCancelRacesPooledTickets stresses context cancellation against
// epoch claims now that tickets are pooled: a ticket the epoch's CAS
// claimed must have its verdict honored even if the context fired, and
// a cancel-won ticket must never be recycled while the flusher might
// still touch it. The counter identity and the race detector are the
// assertions; ci runs this with -race -count=2.
func TestCancelRacesPooledTickets(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			nodes := tree.Nodes()
			for i := 0; i < 300; i++ {
				// A timeout in the same band as MaxWait lands cancellations
				// on both sides of the epoch's claim.
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(150))*time.Microsecond)
				h, err := m.Connect(ctx, rng.Intn(nodes), rng.Intn(nodes))
				cancel()
				switch {
				case err == nil:
					if err := m.Release(h); err != nil {
						errs[id] = fmt.Errorf("release: %w", err)
						return
					}
				case errors.Is(err, ErrUnroutable), errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrAdmitTimeout):
				default:
					errs[id] = fmt.Errorf("connect: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Offered != s.Granted+s.Rejected+s.Cancelled {
		t.Errorf("counter identity violated: offered %d != granted %d + rejected %d + cancelled %d",
			s.Offered, s.Granted, s.Rejected, s.Cancelled)
	}
	if s.Active != 0 {
		t.Errorf("active = %d after full release, want 0", s.Active)
	}
}

// TestDeliveryPipelineModes checks every verdict is delivered exactly
// once on the one delivery path: each Connect returns exactly one grant
// or error, and the counters add up. The subtests keep the names of the
// DeliveryPipeline settings the test used to sweep; both now run the
// same drain → flush → unlock → deliver sequence, under a different
// epoch shape each:
//   - pipeline=-1 (the old synchronous setting): BatchSize exceeds the
//     client count, so no epoch ever fills and the MaxWait timer on the
//     flusher flushes and delivers every one.
//   - pipeline=0 (the old default): a mixed workload of full epochs
//     flushed inline by the connecting goroutine and partial epochs
//     flushed by the timer.
func TestDeliveryPipelineModes(t *testing.T) {
	const clients = 8
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"pipeline=-1", 2 * clients},
		{"pipeline=0", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := topology.MustNew(2, 4, 4)
			m, err := New(Config{Tree: tree, BatchSize: tc.batch, MaxWait: 100 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var granted, rejected sync.Map
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					nodes := tree.Nodes()
					for i := 0; i < 100; i++ {
						h, err := m.Connect(context.Background(), rng.Intn(nodes), rng.Intn(nodes))
						if err == nil {
							granted.Store([2]int{id, i}, struct{}{})
							if err := m.Release(h); err != nil {
								t.Error(err)
								return
							}
						} else if errors.Is(err, ErrUnroutable) {
							rejected.Store([2]int{id, i}, struct{}{})
						} else {
							t.Errorf("connect: %v", err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if err := m.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			count := func(m *sync.Map) (n uint64) {
				m.Range(func(_, _ any) bool { n++; return true })
				return
			}
			s := m.Stats()
			if g := count(&granted); g != s.Granted {
				t.Errorf("clients saw %d grants, manager counted %d", g, s.Granted)
			}
			if r := count(&rejected); r != s.Rejected {
				t.Errorf("clients saw %d rejections, manager counted %d", r, s.Rejected)
			}
			if s.Offered != clients*100 {
				t.Errorf("offered = %d, want %d", s.Offered, clients*100)
			}
			if s.Active != 0 || s.Occupancy != 0 {
				t.Errorf("active = %d, occupancy = %d after releasing everything, want 0", s.Active, s.Occupancy)
			}
		})
	}
}

// TestDrainRefusedCounter: ErrDraining exits count under DrainRefused,
// not Overflow — shutdown refusals and backpressure overflow are
// separately attributable.
func TestDrainRefusedCounter(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Connect(context.Background(), 0, 5); !errors.Is(err, ErrDraining) {
			t.Fatalf("connect while draining = %v, want ErrDraining", err)
		}
	}
	s := m.Stats()
	if s.DrainRefused != 3 {
		t.Errorf("drain_refused = %d, want 3", s.DrainRefused)
	}
	if s.Overflow != 0 {
		t.Errorf("overflow = %d, want 0 — drain refusals must not double-count", s.Overflow)
	}
	if s.Offered != 0 {
		t.Errorf("offered = %d, want 0 — refused requests never enter the queue", s.Offered)
	}
}
