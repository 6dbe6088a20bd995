package fabric

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// burst fires n concurrent Connect calls with random endpoints, releases
// every grant, and returns once all verdicts are in.
func burst(t *testing.T, m *Manager, tree *topology.Tree, n int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			h, err := m.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
			if err != nil {
				if !errors.Is(err, ErrUnroutable) {
					t.Errorf("client %d: %v", id, err)
				}
				return
			}
			if err := h.Release(); err != nil {
				t.Errorf("client %d: release: %v", id, err)
			}
		}(c)
	}
	wg.Wait()
}

// fullEpochEngine runs one epoch of exactly four requests on a fresh
// manager built from spec and returns the engine that ran it. Nothing
// flushes before the fourth enqueue (MaxWait is an hour), and the four
// requests fill two level-1 subtrees of FT(3,4,4), so even the shard
// engine has two shards to schedule rather than falling back to its
// sequential core.
func fullEpochEngine(t *testing.T, spec string) string {
	t.Helper()
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, SchedulerSpec: spec, BatchSize: 4, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var wg sync.WaitGroup
	for _, r := range [][2]int{{0, 5}, {1, 6}, {16, 21}, {17, 22}} {
		wg.Add(1)
		go func(src, dst int) {
			defer wg.Done()
			h, err := m.Connect(context.Background(), src, dst)
			if err != nil {
				t.Errorf("connect %d→%d: %v", src, dst, err)
				return
			}
			if err := h.Release(); err != nil {
				t.Errorf("release %d→%d: %v", src, dst, err)
			}
		}(r[0], r[1])
	}
	wg.Wait()
	return m.Stats().LastEpochEngine
}

// TestParallelShardManager drives the subtree-sharded engine, selected
// by its spec string, through the manager under load (and under -race
// in CI) and replays the journal.
func TestParallelShardManager(t *testing.T) {
	const spec = "parallel,mode=shard,workers=8,steal,rollback"
	if got := fullEpochEngine(t, spec); got != "parallel-level-wise/shard+steal/w8" {
		t.Errorf("full epoch ran on %q", got)
	}
	tree := topology.MustNew(3, 4, 4)
	var j journal
	m, err := New(Config{
		Tree:          tree,
		SchedulerSpec: spec,
		BatchSize:     32,
		MaxWait:       10 * time.Millisecond,
		Trace:         j.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		burst(t, m, tree, 48, int64(round)*100)
	}
	s := m.Stats()
	if s.Active != 0 || s.Utilization != 0 {
		t.Errorf("drained manager still holds links: %+v", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	events := j.events
	j.mu.Unlock()
	replay(t, tree, events)
}

// TestHandlePortsOwned: a handle's ports must survive later epochs even
// though outcomes alias the manager's reusable scheduling arena.
func TestHandlePortsOwned(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	before := h1.Ports()
	// Subsequent epochs reuse the scratch arena h1's outcome lived in.
	for i := 0; i < 8; i++ {
		h, err := m.Connect(context.Background(), i%tree.Nodes(), (i*7+3)%tree.Nodes())
		if err != nil && !errors.Is(err, ErrUnroutable) {
			t.Fatal(err)
		}
		if err == nil {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := h1.Ports()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("handle ports mutated by later epochs: %v -> %v", before, after)
		}
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
