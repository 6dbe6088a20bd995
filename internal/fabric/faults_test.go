package fabric

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// fastRepair keeps repair-loop tests quick: immediate epochs, short
// backoff, a handful of retries.
func fastRepair(tree *topology.Tree) Config {
	return Config{
		Tree:          tree,
		BatchSize:     1,
		MaxWait:       time.Millisecond,
		RepairBackoff: 500 * time.Microsecond,
		RepairRetries: 4,
	}
}

// TestFailLinkRevokesAndRepairs takes down the one link a connection
// climbs through and watches the repair loop move it to a surviving
// port: same endpoints, new route, handle alive throughout.
func TestFailLinkRevokesAndRepairs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	oldPorts := h.Ports()
	if len(oldPorts) != 1 {
		t.Fatalf("route 0→%d has %d ports, want 1 on a 2-level tree", tree.Nodes()-1, len(oldPorts))
	}

	revoked, err := m.FailLink(0, 0, oldPorts[0], faults.Up)
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("FailLink revoked %d connections, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().Repaired == 1 })

	if h.Repairing() || h.Err() != nil {
		t.Fatalf("repaired handle not active: repairing=%v err=%v", h.Repairing(), h.Err())
	}
	newPorts := h.Ports()
	if len(newPorts) != 1 || newPorts[0] == oldPorts[0] {
		t.Fatalf("repair kept the dead port: old %v new %v", oldPorts, newPorts)
	}
	s := m.Stats()
	if s.Revoked != 1 || s.PendingRepairs != 0 || s.FaultyChannels != 1 {
		t.Fatalf("stats after repair: %+v", s)
	}
	if s.DegradedCapacity >= 1.0 {
		t.Fatalf("degraded capacity %v not reflecting the fault", s.DegradedCapacity)
	}
	if s.RepairLatencyMS.N != 1 || s.RepairDepth.N != 1 {
		t.Fatalf("repair distributions not recorded: %+v", s)
	}
	if err := h.Release(); err != nil {
		t.Fatalf("release of repaired handle: %v", err)
	}
	if got := m.RepairAll(); got != 1 {
		t.Fatalf("RepairAll returned %d, want 1", got)
	}
	if s := m.Stats(); s.FaultyChannels != 0 || s.DegradedCapacity != 1.0 {
		t.Fatalf("stats after RepairAll: %+v", s)
	}
}

// TestFailSwitchRevokesAndRoutesAround kills the level-1 switch a route
// climbs through; the repaired route must land on a different parent.
func TestFailSwitchRevokesAndRoutesAround(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	deadParent := tree.UpParent(0, 0, h.Ports()[0])
	revoked, err := m.FailSwitch(1, deadParent)
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("FailSwitch revoked %d, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().Repaired == 1 })
	if got := tree.UpParent(0, 0, h.Ports()[0]); got == deadParent {
		t.Fatalf("repaired route still climbs through failed switch %d", deadParent)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	// Both channels of each child link are down, so Faults merges them
	// into one Both-direction LinkFault per link.
	fs := m.Faults()
	if len(fs.Links) != tree.Children() {
		t.Fatalf("Faults reports %d links for a failed level-1 switch, want %d", len(fs.Links), tree.Children())
	}
	for _, l := range fs.Links {
		if l.Direction != faults.Both {
			t.Fatalf("merged fault has direction %v, want both: %+v", l.Direction, l)
		}
	}
}

// isolate fails every upward channel out of node 0's level-0 switch, so
// no route from node 0 can leave the switch.
func isolate(t *testing.T, m *Manager) int {
	t.Helper()
	fs := &faults.FaultSet{}
	for p := 0; p < m.cfg.Tree.Parents(); p++ {
		fs.Links = append(fs.Links, faults.LinkFault{Level: 0, Switch: 0, Port: p, Direction: faults.Up})
	}
	_, revoked, err := m.Fail(fs)
	if err != nil {
		t.Fatal(err)
	}
	return revoked
}

// TestRepairExhaustionIsTerminal isolates a connection's source switch:
// every repair attempt must fail, the bounded retry gives up, and both
// Handle.Err and Release surface ErrUnroutableDegraded.
func TestRepairExhaustionIsTerminal(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	if revoked := isolate(t, m); revoked != 1 {
		t.Fatalf("isolating revoked %d, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().RepairFailed == 1 })

	if !errors.Is(h.Err(), ErrUnroutableDegraded) {
		t.Fatalf("dead handle Err = %v, want ErrUnroutableDegraded", h.Err())
	}
	if err := h.Release(); !errors.Is(err, ErrUnroutableDegraded) {
		t.Fatalf("release of dead handle = %v, want ErrUnroutableDegraded", err)
	}
	s := m.Stats()
	if s.PendingRepairs != 0 || s.Active != 0 {
		t.Fatalf("dead repair left pending=%d active=%d", s.PendingRepairs, s.Active)
	}
	if s.RepairDepth.N != 0 {
		t.Fatalf("failed repair recorded a depth sample: %+v", s.RepairDepth)
	}
	// New admissions from the isolated switch are ordinary rejections.
	if _, err := m.Connect(context.Background(), 0, tree.Nodes()-1); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("connect from isolated switch = %v, want ErrUnroutable", err)
	}
}

// TestReleaseCancelsRepair releases a handle while it sits in the
// repair loop; the repair is aborted, nothing leaks.
func TestReleaseCancelsRepair(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairBackoff = time.Hour // park the repair in backoff forever
	cfg.RepairRetries = 100
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	isolate(t, m)
	if !h.Repairing() {
		t.Fatal("revoked handle not repairing")
	}
	if err := h.Release(); err != nil {
		t.Fatalf("release of repairing handle: %v", err)
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.RepairAborted == 1 && s.PendingRepairs == 0
	})
	if err := h.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("second release = %v, want ErrReleased", err)
	}
}

// TestConnectDrainingError pins the satellite: a draining manager
// refuses admission with ErrDraining, distinguishable from backpressure
// (ErrAdmitTimeout) while still matching ErrClosed for old callers.
func TestConnectDrainingError(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = m.Connect(context.Background(), 0, 5)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("connect while draining = %v, want ErrDraining", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ErrDraining does not match ErrClosed: %v", err)
	}
	if errors.Is(ErrAdmitTimeout, ErrDraining) {
		t.Fatal("backpressure timeout must not match ErrDraining")
	}
}

// TestChaosFailRepairRevoke is the acceptance chaos test (ci runs the
// package under -race): concurrent connect/release churn while faults
// are injected and repaired at random. Afterwards every handle is
// released and the link state must equal exactly (all-free minus the
// remaining failed channels) — no leaked or resurrected channel, ever.
func TestChaosFailRepairRevoke(t *testing.T) {
	tree := topology.MustNew(3, 4, 2)
	cfg := Config{
		Tree:          tree,
		BatchSize:     8,
		MaxWait:       500 * time.Microsecond,
		AdmitTimeout:  50 * time.Millisecond,
		RepairBackoff: 500 * time.Microsecond,
		RepairRetries: 3,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		held    []*Handle
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		workers = 4
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []*Handle
			defer func() {
				mu.Lock()
				held = append(held, local...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(local) > 6 || (len(local) > 0 && rng.Intn(3) == 0) {
					i := rng.Intn(len(local))
					h := local[i]
					local = append(local[:i], local[i+1:]...)
					// Any verdict is legal here: nil, or the terminal error of
					// a connection the chaos killed.
					_ = h.Release()
					continue
				}
				h, err := m.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
				if err == nil {
					local = append(local, h)
				}
			}
		}(int64(w + 1))
	}

	// Chaos schedule: inject a seeded fault set, let the repair loop
	// work, then heal — sometimes the same set, sometimes everything.
	for i := 0; i < 20; i++ {
		fs := faults.Uniform(tree, 0.04, int64(i))
		if i%5 == 4 {
			fs = faults.CorrelatedSwitches(tree, 0.03, int64(i))
		}
		if _, _, err := m.Fail(fs); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if i%3 == 2 {
			m.RepairAll()
		} else if _, err := m.Repair(fs); err != nil {
			t.Fatal(err)
		}
	}
	// Leave the fabric degraded so the final identity is non-trivial.
	if _, _, err := m.Fail(faults.Uniform(tree, 0.06, 999)); err != nil {
		t.Fatal(err)
	}

	close(stop)
	wg.Wait()
	for _, h := range held {
		_ = h.Release() // dead handles report their terminal error; fine
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.PendingRepairs == 0 && s.QueueDepth == 0
	})

	s := m.Stats()
	if s.Revoked != s.Repaired+s.RepairFailed+s.RepairAborted {
		t.Fatalf("repair accounting leak: revoked %d != repaired %d + failed %d + aborted %d",
			s.Revoked, s.Repaired, s.RepairFailed, s.RepairAborted)
	}
	if s.Active != 0 {
		t.Fatalf("%d connections still active after releasing every handle", s.Active)
	}

	// The acceptance identity: after arbitrary fail/repair/revoke
	// sequences and a full drain, the state is exactly all-free minus
	// the currently failed channels.
	want := linkstate.New(tree)
	remaining := m.Faults()
	remaining.Apply(want)
	m.mu.Lock()
	equal := m.st.Equal(want)
	occupied := m.st.OccupiedCount()
	m.mu.Unlock()
	if occupied != 0 {
		t.Fatalf("%d channels still occupied after drain", occupied)
	}
	if !equal {
		t.Fatal("drained degraded state differs from fresh-plus-faults")
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbortsRepairs shuts the manager down while repairs are
// pending; they resolve as aborted, not leaked.
func TestCloseAbortsRepairs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairRetries = 1000
	cfg.RepairBackoff = time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	isolate(t, m) // repair can never succeed; it cycles through backoff
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.PendingRepairs == 0 && s.RepairAborted == 1
	})
	if !errors.Is(h.Err(), ErrClosed) {
		t.Fatalf("aborted handle Err = %v, want ErrClosed", h.Err())
	}
}

// TestReleaseRacingFailThenRepair: an owner's Release that wins its CAS
// while Fail walks the connections is finished by Fail itself, under
// the fault mask. Otherwise the handle would still be parked when a
// Repair hands the dead channel back free, and its drain would release
// that channel a second time.
func TestReleaseRacingFailThenRepair(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	h.released.Store(true) // the owner's CAS; its push has not happened yet
	if revoked, err := m.FailLink(0, 0, h.ports[0], faults.Both); err != nil || revoked != 0 {
		t.Fatalf("FailLink = %d revoked, %v; want a released handle left unrevoked", revoked, err)
	}
	m.relRing.push(h) // the owner's fast path completes after the walk
	if n := m.RepairAll(); n == 0 {
		t.Fatal("RepairAll repaired nothing")
	}
	s := m.Stats() // drains the ring
	if s.Released != 1 || s.Active != 0 || s.Occupancy != 0 || s.Revoked != 0 {
		t.Fatalf("after release/fail/repair race: %+v", s)
	}
}

// TestRepairBeforeDeltaDeparture: in delta mode a revoked route waits in
// the departure buffer for the next epoch. A Repair that comes first
// must apply it while the fault still masks the dead channel, not hand
// the channel back free and let the departure release it again.
func TestRepairBeforeDeltaDeparture(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	// Epochs flush only when two requests are queued, so the lone repair
	// ticket the fault queues cannot run a delta epoch before RepairAll.
	m, err := New(Config{Tree: tree, SchedulerSpec: incSpec, BatchSize: 2, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Nodes()
	hs := make([]*Handle, 2)
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := m.Connect(context.Background(), i, n-1-i)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
			}
			hs[i] = h
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if revoked, err := m.FailLink(0, 0, hs[0].Ports()[0], faults.Up); err != nil || revoked != 1 {
		t.Fatalf("FailLink = %d revoked, %v; want 1", revoked, err)
	}
	if n := m.RepairAll(); n != 1 {
		t.Fatalf("RepairAll repaired %d channels, want 1", n)
	}
	if s := m.Stats(); s.Revoked != 1 || s.PendingRepairs != 1 || s.Occupancy != 2 {
		t.Fatalf("after revoke and repair: %+v", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if err := h.Release(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("release: %v", err)
		}
	}
	if s := m.Stats(); s.Occupancy != 0 || s.Active != 0 {
		t.Fatalf("fabric not drained: %+v", s)
	}
}
