package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/topology"
)

// goldenSpecs derives one deterministic spec per registered scheduler
// family (default seeds are fixed, so a spec names a reproducible
// engine).
func goldenSpecs(t *testing.T) []string {
	t.Helper()
	var specs []string
	for _, in := range sched.List() {
		switch in.Family {
		case "backtrack":
			specs = append(specs, "backtrack,depth=2")
		case "stale":
			specs = append(specs, "stale,window=8")
		case "parallel":
			specs = append(specs, "parallel,mode=deterministic,workers=2")
		default:
			specs = append(specs, in.Family)
		}
	}
	if len(specs) < 5 {
		t.Fatalf("registry shrank to %d families: %v", len(specs), specs)
	}
	return specs
}

// lcg is a tiny deterministic generator so both fabrics see the exact
// same request history.
type lcg uint64

func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int((uint64(*g) >> 33) % uint64(n))
}

// TestGolden1PlaneMatchesBareManager pins the federation's zero-cost
// abstraction claim: a 1-plane federation must be bit-identical to a
// bare fabric.Manager — same grant/deny verdicts, same routes, same
// occupancy — across every registry scheduler family, driven by one
// deterministic connect/release history with BatchSize 1 (every request
// its own epoch, so epoch composition cannot diverge).
func TestGolden1PlaneMatchesBareManager(t *testing.T) {
	for _, spec := range goldenSpecs(t) {
		t.Run(spec, func(t *testing.T) {
			const l, m, w = 3, 4, 2
			bare, err := fabric.New(fabric.Config{
				Tree: topology.MustNew(l, m, w), SchedulerSpec: spec, BatchSize: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bare.Close(context.Background())
			fed, err := New(Config{Planes: []PlaneConfig{{
				Name: "only",
				Fabric: fabric.Config{
					Tree: topology.MustNew(l, m, w), SchedulerSpec: spec, BatchSize: 1,
				},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			defer fed.Close(context.Background())

			nodes := bare.Tree().Nodes()
			var g1, g2 lcg
			var heldBare []*fabric.Handle
			var heldFed []*Handle
			ctx := context.Background()
			for step := 0; step < 300; step++ {
				if len(heldBare) > 0 && step%3 == 2 {
					hb, hf := heldBare[0], heldFed[0]
					heldBare, heldFed = heldBare[1:], heldFed[1:]
					if e1, e2 := hb.Release(), hf.Release(); (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: release diverged: bare %v, fed %v", step, e1, e2)
					}
					continue
				}
				src, dst := g1.next(nodes), g1.next(nodes)
				if s2, d2 := g2.next(nodes), g2.next(nodes); s2 != src || d2 != dst {
					t.Fatalf("generator drift at step %d", step)
				}
				hb, e1 := bare.Connect(ctx, src, dst)
				hf, e2 := fed.Connect(ctx, src, dst)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d (%d→%d): verdicts diverged: bare %v, fed %v", step, src, dst, e1, e2)
				}
				if e1 != nil {
					if !errors.Is(e2, fabric.ErrUnroutable) {
						t.Fatalf("step %d: federated denial %v does not match ErrUnroutable", step, e2)
					}
					continue
				}
				if p1, p2 := fmt.Sprint(hb.Ports()), fmt.Sprint(hf.Ports()); p1 != p2 {
					t.Fatalf("step %d (%d→%d): routes diverged: bare %v, fed %v", step, src, dst, p1, p2)
				}
				heldBare = append(heldBare, hb)
				heldFed = append(heldFed, hf)
			}
			sb := bare.Stats()
			sf := fed.Stats().Planes[0].Fabric
			if sb.Granted != sf.Granted || sb.Rejected != sf.Rejected || sb.Active != sf.Active {
				t.Errorf("counters diverged: bare granted/rejected/active %d/%d/%d, fed %d/%d/%d",
					sb.Granted, sb.Rejected, sb.Active, sf.Granted, sf.Rejected, sf.Active)
			}
			if sb.Occupancy != sf.Occupancy {
				t.Errorf("occupancy diverged: bare %d, fed %d", sb.Occupancy, sf.Occupancy)
			}
		})
	}
}
