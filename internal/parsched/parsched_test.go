package parsched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// testShapes are the randomized FT(l, m, w) shapes the equivalence
// property is checked on, including slimmed (m != w) trees.
var testShapes = [][3]int{
	{2, 4, 4},
	{3, 4, 4},
	{3, 4, 2},
	{2, 8, 8},
	{4, 3, 3},
}

// randomBatch draws n random endpoint pairs (self-pairs and duplicates
// included — both are legal requests).
func randomBatch(tree *topology.Tree, n int, seed int64) []core.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
	}
	return reqs
}

// sameResult compares the fields the Deterministic mode promises to
// reproduce bit-identically: grants, ports, and fail levels.
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Granted != want.Granted || got.Total != want.Total {
		t.Fatalf("%s: granted/total %d/%d, want %d/%d", label, got.Granted, got.Total, want.Granted, want.Total)
	}
	for i := range want.Outcomes {
		w, g := &want.Outcomes[i], &got.Outcomes[i]
		if w.Granted != g.Granted || w.FailLevel != g.FailLevel || fmt.Sprint(w.Ports) != fmt.Sprint(g.Ports) {
			t.Fatalf("%s: outcome %d (%d→%d): got granted=%v fail=%d ports=%v, want granted=%v fail=%d ports=%v",
				label, i, w.Src, w.Dst, g.Granted, g.FailLevel, g.Ports, w.Granted, w.FailLevel, w.Ports)
		}
	}
}

// TestDeterministicBitIdentical is the equivalence property test: across
// randomized tree shapes, batch sizes, orders, rollback settings, and
// worker counts, Deterministic mode must return a bit-identical Result to
// the sequential level-major scheduler and leave an identical link state.
func TestDeterministicBitIdentical(t *testing.T) {
	for _, shape := range testShapes {
		tree := topology.MustNew(shape[0], shape[1], shape[2])
		for _, batch := range []int{1, 7, tree.Nodes(), 3 * tree.Nodes()} {
			for _, order := range []core.Order{core.NaturalOrder, core.DeepestFirst, core.ShuffledOrder} {
				for _, rollback := range []bool{false, true} {
					for _, workers := range []int{2, 3, 8} {
						opts := core.Options{Order: order, Rollback: rollback}
						seq := &core.LevelWise{Opts: opts}
						eng := New(Config{Workers: workers, Mode: Deterministic, Opts: opts})
						stSeq := linkstate.New(tree)
						stPar := linkstate.New(tree)
						reqs := randomBatch(tree, batch, int64(batch)*31+int64(workers))
						want := seq.Schedule(stSeq, reqs)
						got := eng.Schedule(stPar, reqs)
						label := fmt.Sprintf("FT(%d,%d,%d)/batch%d/%s/rollback=%v/w%d",
							shape[0], shape[1], shape[2], batch, order, rollback, workers)
						sameResult(t, label, got, want)
						if !stSeq.Equal(stPar) {
							t.Fatalf("%s: final link states differ", label)
						}
						if err := core.Verify(tree, got); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
				}
			}
		}
	}
}

// TestFallbackPaths: option combinations the parallel sweeps cannot
// honor must still schedule correctly (via the sequential fallback).
func TestFallbackPaths(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	reqs := randomBatch(tree, tree.Nodes(), 3)
	for _, eng := range []*Engine{
		New(Config{Workers: 4, Mode: Deterministic, Opts: core.Options{Policy: core.RandomFit}}),
		New(Config{Workers: 4, Mode: Shard, Opts: core.Options{Policy: core.LeastLoaded}}),
		New(Config{Workers: 4, Mode: Deterministic, Opts: core.Options{Traversal: core.RequestMajor}}),
		New(Config{Workers: 1, Mode: Shard}),
	} {
		st := linkstate.New(tree)
		res := eng.Schedule(st, reqs)
		if err := core.Verify(tree, res); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
	}
	// The fallback must match the sequential scheduler exactly (it is the
	// sequential scheduler).
	opts := core.Options{Policy: core.RandomFit}
	st1, st2 := linkstate.New(tree), linkstate.New(tree)
	want := (&core.LevelWise{Opts: opts}).Schedule(st1, reqs)
	got := New(Config{Workers: 4, Mode: Deterministic, Opts: opts}).Schedule(st2, reqs)
	sameResult(t, "random-fit fallback", got, want)
}

// TestEngineIdentity covers Name/Workers/Mode plumbing.
func TestEngineIdentity(t *testing.T) {
	e := New(Config{Workers: 6, Mode: Shard})
	if e.Name() != "parallel-level-wise/shard/w6" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.Workers() != 6 || e.Mode() != Shard {
		t.Fatalf("Workers/Mode = %d/%s", e.Workers(), e.Mode())
	}
	if d := New(Config{}); d.Workers() <= 0 || d.Mode() != Deterministic {
		t.Fatalf("defaults: workers %d mode %s", d.Workers(), d.Mode())
	}
}
