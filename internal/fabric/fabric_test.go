package fabric

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
)

// journal collects Trace events. Trace runs under the manager lock, so
// plain appends are already serialized; the mutex only covers the final
// read after Close.
type journal struct {
	mu     sync.Mutex
	events []Event
}

func (j *journal) record(e Event) {
	j.mu.Lock()
	// Ports aliases live handle storage; copy before retaining.
	e.Ports = append([]int(nil), e.Ports...)
	j.events = append(j.events, e)
	j.mu.Unlock()
}

// replay applies the journal's grant/release history, in serialization
// order, to a fresh link state. Any failure means the fabric granted a
// link twice or released one it did not hold.
func replay(t *testing.T, tree *topology.Tree, events []Event) {
	t.Helper()
	st := linkstate.New(tree)
	grants, releases := 0, 0
	for i, e := range events {
		switch e.Kind {
		case EventGrant:
			grants++
			if err := st.AllocatePath(e.Src, e.Dst, e.Ports); err != nil {
				t.Fatalf("event %d: replaying grant %d→%d ports %v: %v", i, e.Src, e.Dst, e.Ports, err)
			}
		case EventRelease:
			releases++
			if err := st.ReleasePath(e.Src, e.Dst, e.Ports); err != nil {
				t.Fatalf("event %d: replaying release %d→%d ports %v: %v", i, e.Src, e.Dst, e.Ports, err)
			}
		}
	}
	if grants != releases {
		t.Fatalf("journal has %d grants but %d releases", grants, releases)
	}
	if occ := st.OccupiedCount(); occ != 0 {
		t.Fatalf("replayed journal leaves %d channels occupied", occ)
	}
}

// TestConcurrentMixed is the acceptance workload: 64 concurrent clients
// mixing Connect and Release on FT(3,8) under the race detector. It
// verifies (a) via journal replay that no link is ever double-allocated,
// and (b) the counter identity offered == granted+rejected+cancelled.
func TestConcurrentMixed(t *testing.T) {
	tree := topology.MustNew(3, 8, 8)
	var j journal
	m, err := New(Config{
		Tree:      tree,
		BatchSize: 16,
		MaxWait:   200 * time.Microsecond,
		Trace:     j.record,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const iters = 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			var held []*Handle
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				if i%13 == 7 {
					// Exercise the cancellation path with an already-
					// expired context; any of overflow / cancelled /
					// granted (claim race) is a legal outcome.
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				}
				h, err := m.Connect(ctx, rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
				if err != nil {
					if !errors.Is(err, ErrUnroutable) && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrClosed) {
						t.Errorf("client %d: unexpected connect error: %v", id, err)
					}
				} else {
					held = append(held, h)
				}
				// Mixed workload: shed circuits so links churn.
				for len(held) > 3 || (len(held) > 0 && rng.Intn(2) == 0) {
					if err := m.Release(held[0]); err != nil {
						t.Errorf("client %d: release: %v", id, err)
					}
					held = held[1:]
				}
			}
			for _, h := range held {
				if err := h.Release(); err != nil {
					t.Errorf("client %d: final release: %v", id, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := m.Stats()
	if s.Offered != s.Granted+s.Rejected+s.Cancelled {
		t.Errorf("counter identity broken: offered %d != granted %d + rejected %d + cancelled %d",
			s.Offered, s.Granted, s.Rejected, s.Cancelled)
	}
	if s.Granted != s.Released {
		t.Errorf("granted %d != released %d after full drain", s.Granted, s.Released)
	}
	if s.Active != 0 {
		t.Errorf("active = %d after full drain", s.Active)
	}
	if s.Utilization != 0 {
		t.Errorf("utilization = %v after full drain", s.Utilization)
	}
	if s.Offered == 0 || s.Granted == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
	if s.EpochSize.N == 0 || s.EpochSize.Mean <= 1 {
		t.Errorf("no epoch batching observed: %+v", s.EpochSize)
	}

	j.mu.Lock()
	events := j.events
	j.mu.Unlock()
	replay(t, tree, events)
}

// TestUnroutable saturates the two upward channels of one level-0 switch
// in FT(2,2) and checks the third circuit is denied with a typed error,
// then becomes routable again after a release.
func TestUnroutable(t *testing.T) {
	tree := topology.MustNew(2, 2, 2)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	ctx := context.Background()

	// Nodes 2 and 3 share level-0 switch 1, which has w=2 upward links.
	h1, err := m.Connect(ctx, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Connect(ctx, 3, 1); err != nil {
		t.Fatal(err)
	}
	_, err = m.Connect(ctx, 2, 0)
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("saturated connect: got %v, want ErrUnroutable", err)
	}
	var ue *UnroutableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v is not *UnroutableError", err)
	}
	if ue.FailLevel != 0 {
		t.Errorf("FailLevel = %d, want 0", ue.FailLevel)
	}
	if err := m.Release(h1); err != nil {
		t.Fatal(err)
	}
	h3, err := m.Connect(ctx, 2, 0)
	if err != nil {
		t.Fatalf("connect after release: %v", err)
	}
	if err := h3.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelWhileQueued cancels a request parked in an unflushable epoch
// and checks it leaves the queue as cancelled, not granted.
func TestCancelWhileQueued(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 64, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Connect(ctx, 0, 5)
		errc <- err
	}()
	waitFor(t, func() bool { return m.Stats().QueueDepth == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled connect returned %v", err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Offered != 1 || s.Cancelled != 1 || s.Granted != 0 {
		t.Errorf("counters after cancel: %+v", s)
	}
	if s.Utilization != 0 {
		t.Errorf("cancelled request left utilization %v", s.Utilization)
	}
}

// gatedScheduler lets its first pass Schedule calls through, then blocks
// the next one until released, letting tests hold the flusher (and the
// manager lock) mid-epoch.
type gatedScheduler struct {
	inner    core.Scheduler
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
	pass     int // epochs to schedule before gating; read under m.mu
}

func newGatedScheduler() *gatedScheduler {
	return &gatedScheduler{
		inner:    &core.LevelWise{Opts: core.Options{Rollback: true}},
		entered:  make(chan struct{}),
		released: make(chan struct{}),
	}
}

func (g *gatedScheduler) Name() string { return "gated/" + g.inner.Name() }

func (g *gatedScheduler) Schedule(st *linkstate.State, reqs []core.Request) *core.Result {
	if g.pass > 0 {
		g.pass--
		return g.inner.Schedule(st, reqs)
	}
	g.once.Do(func() {
		close(g.entered)
		<-g.released
	})
	return g.inner.Schedule(st, reqs)
}

// TestHandleErrLockFree holds an epoch open at the gate — the manager
// lock with it — and checks that Err on a live handle still answers at
// once: the federation's post-grant check must never queue behind an
// epoch. (A dead handle still reports its cause; the fault tests pin
// that.)
func TestHandleErrLockFree(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	gate := newGatedScheduler()
	gate.pass = 1 // grant h, then hold the next epoch
	m, err := newManager(Config{Tree: tree, BatchSize: 1, MaxWait: time.Hour}, releaseRingSize, sched.Wrap(gate))
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Connect(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := m.Connect(context.Background(), 1, 6)
		parked <- err
	}()
	<-gate.entered
	got := make(chan error, 1)
	go func() { got <- h.Err() }()
	select {
	case err := <-got:
		if err != nil {
			t.Errorf("Err on an active handle = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Err blocked behind the epoch holding the manager lock")
	}
	close(gate.released)
	if err := <-parked; err != nil {
		t.Errorf("gated connect: %v", err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitTimeout parks a request in an unflushable epoch and checks
// the configured admission timeout pulls it out as cancelled.
func TestAdmitTimeout(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 4, MaxWait: time.Hour, AdmitTimeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Connect(context.Background(), 0, 5); !errors.Is(err, ErrAdmitTimeout) {
		t.Fatalf("parked connect: got %v, want ErrAdmitTimeout", err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Offered != 1 || s.Cancelled != 1 || s.Granted != 0 {
		t.Errorf("counters after admit timeout: %+v", s)
	}
}

// TestBackpressureOverflow fills the one-slot queue while the flusher is
// stuck mid-epoch and checks a further request blocks in backpressure
// until its context expires, counted as overflow (never offered).
func TestBackpressureOverflow(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	gate := newGatedScheduler()
	m, err := newManager(Config{Tree: tree, BatchSize: 1, MaxWait: time.Hour, QueueLimit: 1}, releaseRingSize, sched.Wrap(gate))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() { // A: claimed immediately (BatchSize 1), stuck at the gate
		_, err := m.Connect(context.Background(), 0, 5)
		errc <- err
	}()
	<-gate.entered
	go func() { // B: takes the freed queue slot, blocks on the epoch lock
		_, err := m.Connect(context.Background(), 1, 6)
		errc <- err
	}()
	waitFor(t, func() bool { return m.freeSlots.Load() == 0 })
	// C: no slot available and the flusher is stuck — backpressure until
	// the context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := m.Connect(ctx, 2, 7); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backpressured connect: got %v, want deadline exceeded", err)
	}
	close(gate.released)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Errorf("parked connect: %v", err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if s.Offered != 2 || s.Granted != 2 {
		t.Errorf("counters: %+v", s)
	}
}

// TestCloseDrains parks several requests in an unflushable epoch and
// checks Close grants them all before shutting down.
func TestCloseDrains(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 100, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const parked = 5
	errc := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			h, err := m.Connect(context.Background(), i, 32+i)
			if err == nil {
				err = h.Release()
			}
			errc <- err
		}(i)
	}
	waitFor(t, func() bool { return m.Stats().QueueDepth == parked })
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parked; i++ {
		if err := <-errc; err != nil {
			t.Errorf("parked connect %d: %v", i, err)
		}
	}
	if _, err := m.Connect(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("connect after close: got %v, want ErrClosed", err)
	}
	s := m.Stats()
	if s.Offered != parked || s.Granted != parked {
		t.Errorf("drain counters: %+v", s)
	}
	if s.Epochs != 1 {
		t.Errorf("drain used %d epochs, want 1", s.Epochs)
	}
}

// TestNoRollbackSchedulerRetainsNothing runs a no-rollback Level-wise
// scheduler at saturating load and checks rejected requests leak no
// channels: after releasing every grant, utilization returns to zero.
func TestNoRollbackSchedulerRetainsNothing(t *testing.T) {
	tree := topology.MustNew(3, 2, 2)
	m, err := New(Config{Tree: tree, SchedulerSpec: "level-wise", BatchSize: 4, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var held []*Handle
	rejected := 0
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				h, err := m.Connect(context.Background(), r.Intn(tree.Nodes()), r.Intn(tree.Nodes()))
				mu.Lock()
				if err != nil {
					rejected++
				} else {
					held = append(held, h)
					if len(held) > 6 { // keep the small tree saturated
						old := held[0]
						held = held[1:]
						mu.Unlock()
						if err := old.Release(); err != nil {
							t.Errorf("release: %v", err)
						}
						continue
					}
				}
				mu.Unlock()
			}
		}(int64(rng.Int()))
	}
	wg.Wait()
	for _, h := range held {
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Rejected == 0 {
		t.Fatalf("workload never saturated FT(3,2): %+v", s)
	}
	if s.Utilization != 0 {
		t.Errorf("no-rollback rejections leaked channels: utilization %v", s.Utilization)
	}
}

// TestConnectValidation covers bad endpoints and double release.
func TestConnectValidation(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if _, err := m.Connect(context.Background(), -1, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := m.Connect(context.Background(), 0, tree.Nodes()); err == nil {
		t.Error("out-of-range dst accepted")
	}
	h, err := m.Connect(context.Background(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(h); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(h); !errors.Is(err, ErrReleased) {
		t.Errorf("double release: got %v, want ErrReleased", err)
	}
	if err := m.Release(nil); err == nil {
		t.Error("nil handle accepted")
	}
	s := m.Stats()
	if s.Offered != 1 {
		t.Errorf("validation failures were counted offered: %+v", s)
	}
}

// TestSameSwitchGrant covers H==0 requests: granted without links.
func TestSameSwitchGrant(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	h, err := m.Connect(context.Background(), 0, 1) // same level-0 switch
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Ports()) != 0 {
		t.Errorf("H=0 grant has ports %v", h.Ports())
	}
	if u := m.Stats().Utilization; u != 0 {
		t.Errorf("H=0 grant consumed links: utilization %v", u)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation covers config defaulting and errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil tree accepted")
	}
	tree := topology.MustNew(2, 2, 2)
	m, err := New(Config{Tree: tree, BatchSize: 8, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if m.cfg.QueueLimit != 8 {
		t.Errorf("QueueLimit = %d, want raised to BatchSize 8", m.cfg.QueueLimit)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
