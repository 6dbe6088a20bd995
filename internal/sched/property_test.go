package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestEveryEngineReleasesClean is the registry-wide leak check: for every
// registered family (its example spec plus deterministic and seeded
// variants), on randomized FT(l, m, w) shapes, releasing every port each
// outcome holds — granted paths and the retained partials of
// no-rollback failures — returns the link state to all-free. Run with
// -race this also exercises the parallel engines' worker fan-out.
func TestEveryEngineReleasesClean(t *testing.T) {
	var specs []string
	for _, info := range List() {
		specs = append(specs, info.Example)
	}
	specs = append(specs,
		"level-wise", // no rollback: failures retain partial paths
		"level-wise,policy=least-loaded",
		"level-wise,order=deepest-first,rollback",
		"local,retries=1,seed=5",
		"backtrack,depth=0",
		"stale,window=4",
		"parallel,mode=deterministic,workers=4,rollback",
		"parallel,mode=shard,workers=4,rollback",
		"parallel,mode=shard,workers=4,steal",
		"parallel,mode=shard,workers=16,steal,shard-level=1,rollback",
	)
	shapeRng := rand.New(rand.NewSource(21))
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			eng := MustParse(spec)
			for trial := 0; trial < 4; trial++ {
				l := 2 + shapeRng.Intn(2)
				m := 2 + shapeRng.Intn(3)
				w := 2 + shapeRng.Intn(3)
				tree := topology.MustNew(l, m, w)
				rng := rand.New(rand.NewSource(int64(trial) + 100))
				reqs := randomBatch(tree, rng, 10+rng.Intn(40))
				st := linkstate.New(tree)
				res := eng.Schedule(st, reqs)
				if err := core.Verify(tree, res); err != nil {
					t.Fatalf("FT(%d,%d,%d): %v", l, m, w, err)
				}
				held := 0
				for i := range res.Outcomes {
					o := &res.Outcomes[i]
					held += 2 * len(o.Ports)
					core.ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
				}
				if held != 2*countPorts(res) {
					t.Fatalf("bookkeeping error in test")
				}
				if n := st.OccupiedCount(); n != 0 {
					t.Fatalf("FT(%d,%d,%d): %d channels leaked after releasing all outcomes", l, m, w, n)
				}
				if !st.Equal(linkstate.New(tree)) {
					t.Fatalf("FT(%d,%d,%d): state differs from all-free after release", l, m, w)
				}
			}
		})
	}
}

func countPorts(res *core.Result) int {
	n := 0
	for i := range res.Outcomes {
		n += len(res.Outcomes[i].Ports)
	}
	return n
}

// TestEngineNamesUnique guards the registry against two specs colliding
// on one reported name with different semantics — names key results in
// reports and the fabric's stats.
func TestEngineNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, spec := range []string{
		"level-wise", "level-wise,rollback", "level-wise,policy=random",
		"level-wise,traversal=request-major", "local", "local-random",
		"backtrack,depth=1", "backtrack,depth=2", "stale,window=1",
		"stale,window=2", "optimal", "parallel,workers=2",
		"parallel,workers=2,mode=shard",
	} {
		name := MustParse(spec).Name()
		if prev, dup := seen[name]; dup {
			t.Errorf("specs %q and %q both name %q", prev, spec, name)
		}
		seen[name] = spec
	}
}
