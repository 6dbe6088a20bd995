package repro

// One benchmark per table/figure of the paper's evaluation plus the
// ablations and extensions indexed in DESIGN.md §3. Each iteration
// regenerates the corresponding result on the paper's full grid; the
// headline schedulability numbers are attached as custom metrics so
// `go test -bench` output doubles as a miniature reproduction report.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/parsched"
)

// benchPerms keeps one bench iteration around a second; cmd/ftbench runs
// the paper's full 100 permutations per point.
const benchPerms = 20

func meanOf(points []experiments.Point, scheduler string) float64 {
	var sum float64
	n := 0
	for _, p := range points {
		if p.Scheduler == scheduler {
			sum += p.Ratio.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func benchFig9(b *testing.B, run func(int, int64) (*experiments.Fig9Result, error)) {
	b.Helper()
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r, err := run(benchPerms, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(meanOf(last.Points, "Global"), "global-ratio")
	b.ReportMetric(meanOf(last.Points, "Local"), "local-ratio")
}

// BenchmarkFig9aTwoLevel regenerates Figure 9(a): two-level fat trees,
// 64–4096 nodes, Local vs Level-wise over random permutations.
func BenchmarkFig9aTwoLevel(b *testing.B) { benchFig9(b, experiments.Fig9a) }

// BenchmarkFig9bThreeLevel regenerates Figure 9(b): three-level fat trees.
func BenchmarkFig9bThreeLevel(b *testing.B) { benchFig9(b, experiments.Fig9b) }

// BenchmarkFig9cFourLevel regenerates Figure 9(c): four-level fat trees.
func BenchmarkFig9cFourLevel(b *testing.B) { benchFig9(b, experiments.Fig9c) }

// BenchmarkFig9dAverage regenerates Figure 9(d): the per-depth average
// schedulability bars aggregated from (a)–(c).
func BenchmarkFig9dAverage(b *testing.B) {
	var rows []experiments.Fig9dRow
	for i := 0; i < b.N; i++ {
		fa, err := experiments.Fig9a(benchPerms, 1)
		if err != nil {
			b.Fatal(err)
		}
		fb, err := experiments.Fig9b(benchPerms, 1)
		if err != nil {
			b.Fatal(err)
		}
		fc, err := experiments.Fig9c(benchPerms, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = experiments.Fig9d(fa, fb, fc)
	}
	for _, r := range rows {
		if r.Scheduler == "Global" && r.Levels == 3 {
			b.ReportMetric(r.Mean, "global-3lvl-ratio")
		}
	}
}

// BenchmarkTable1Hardware regenerates Table 1: the cycle-accurate FPGA
// pipeline scheduling full permutations on 64/512/4096-node trees.
func BenchmarkTable1Hardware(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		if r.Nodes == 4096 {
			b.ReportMetric(r.MakespanNS, "4096-makespan-ns")
		}
	}
}

// BenchmarkComplexityCounts regenerates the Section 4 operation-count
// comparison (O(l·log_l N) vs O(2l·log_l N)).
func BenchmarkComplexityCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ComplexityCounts(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPortPolicy regenerates ablation A1 (port policies).
func BenchmarkAblationPortPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPortPolicy(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRollback regenerates ablation A2 (rollback).
func BenchmarkAblationRollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRollback(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrdering regenerates ablation A3 (request order).
func BenchmarkAblationOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOrdering(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtOptimal regenerates extension E1 (optimal reference).
func BenchmarkExtOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtOptimal(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTraffic regenerates extension E2 (traffic patterns).
func BenchmarkExtTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtTraffic(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSlim regenerates extension E3 (slimmed trees, m != w).
func BenchmarkExtSlim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtSlim(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtDynamic regenerates extension E4 (connection churn).
func BenchmarkExtDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtDynamic(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSwitchSim regenerates extension E5 (distributed simulation
// cross-check).
func BenchmarkExtSwitchSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtSwitchSim(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTBWP regenerates extension E6 (Turn-Back-When-Possible
// baseline).
func BenchmarkExtTBWP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtTBWP(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtRounds regenerates extension E7 (rounds to completion).
func BenchmarkExtRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtRounds(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtWormholeLoad regenerates extension E8 (wormhole
// load–latency sweep).
func BenchmarkExtWormholeLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtWormholeLoad(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtBulkTransfer regenerates extension E9 (circuit vs wormhole
// phase time).
func BenchmarkExtBulkTransfer(b *testing.B) {
	var cells []experiments.BulkCell
	for i := 0; i < b.N; i++ {
		c, err := experiments.ExtBulkTransfer(1)
		if err != nil {
			b.Fatal(err)
		}
		cells = c
	}
	if len(cells) > 0 {
		b.ReportMetric(cells[len(cells)-1].Speedup, "circuit-speedup-1k")
	}
}

// BenchmarkExtFaults regenerates extension E10 (link-failure resilience).
func BenchmarkExtFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtFaults(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSuite runs everything end to end, as cmd/ftbench does.
func BenchmarkFullSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSuite(io.Discard, experiments.SuiteConfig{Permutations: benchPerms, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleLevelWise4096 measures the software scheduler's raw
// throughput on the largest Figure 9 system.
func BenchmarkScheduleLevelWise4096(b *testing.B) {
	tree, err := NewFatTree(2, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	reqs := Permutation(tree, 1)
	st := NewLinkState(tree)
	s := NewLevelWise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		s.Schedule(st, reqs)
	}
}

// BenchmarkFabricThroughput measures the serving layer's admission rate
// on FT(3,8): 64 closed-loop clients mixing Connect/Release across epoch
// flush thresholds. The admissions/s metric is the headline; epoch
// batching must beat the epoch-size-1 configuration by ≥2× (baseline
// recorded in BENCH_fabric.json).
func BenchmarkFabricThroughput(b *testing.B) {
	const clients = 64
	tree, err := NewFatTree(3, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, epoch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("epoch%d/clients%d", epoch, clients), func(b *testing.B) {
			fab, err := fabric.New(fabric.Config{Tree: tree, BatchSize: epoch, MaxWait: 500 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id) + 1))
					for next.Add(1) <= int64(b.N) {
						h, err := fab.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
						if err == nil {
							if err := fab.Release(h); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admissions/s")
			if err := fab.Close(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkParallelLevelWise compares the sequential zero-allocation
// scheduler against the parallel engine's deterministic mode
// (internal/parsched) across worker counts and batch sizes; the requests/s metric is
// the headline (baseline recorded in BENCH_parallel.json). Speedup
// requires real cores: on a GOMAXPROCS=1 host the parallel variants
// measure pure coordination overhead.
func BenchmarkParallelLevelWise(b *testing.B) {
	shapes := []struct{ l, m, w int }{{3, 8, 8}, {4, 4, 4}}
	for _, sh := range shapes {
		tree, err := NewFatTree(sh.l, sh.m, sh.w)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{256, 1024, 4096, 8192} {
			rng := rand.New(rand.NewSource(1))
			reqs := make([]core.Request, batch)
			for i := range reqs {
				reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
			}
			prefix := fmt.Sprintf("FT%dx%dx%d/batch%d", sh.l, sh.m, sh.w, batch)
			run := func(name string, schedule func(*LinkState, []core.Request)) {
				b.Run(prefix+"/"+name, func(b *testing.B) {
					st := NewLinkState(tree)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st.Reset()
						schedule(st, reqs)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "requests/s")
				})
			}
			opts := core.Options{Rollback: true}
			// The sequential baseline reuses a Scratch, exactly as the
			// fabric manager's hot path does.
			lw, sc := &core.LevelWise{Opts: opts}, core.NewScratch()
			run("sequential", func(st *LinkState, reqs []core.Request) { lw.ScheduleInto(st, reqs, sc) })
			for _, workers := range []int{2, 4, 8} {
				eng := parsched.New(parsched.Config{Workers: workers, Mode: parsched.Deterministic, Opts: opts})
				run(fmt.Sprintf("deterministic/w%d", workers),
					func(st *LinkState, reqs []core.Request) { eng.Schedule(st, reqs) })
			}
		}
	}
}

// scalingBatch builds a batch for the multi-core scaling study. With
// local=true every request is confined to one level-(l-2) subtree
// (cycling across subtrees so all shards are populated) — the traffic
// class the shard engine parallelizes without coordination; otherwise
// endpoints are uniform, so most requests cross the root.
func scalingBatch(tree *FatTree, n int, local bool, seed int64) []core.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]core.Request, n)
	if !local {
		for i := range reqs {
			reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
		return reqs
	}
	subtrees := tree.Subtrees(tree.Levels() - 2)
	size := tree.Nodes() / subtrees
	for i := range reqs {
		base := (i % subtrees) * size
		reqs[i] = core.Request{Src: base + rng.Intn(size), Dst: base + rng.Intn(size)}
	}
	return reqs
}

// BenchmarkScalingEngines is the multi-core scaling study: sequential
// vs deterministic vs shard (± steal) with workers pinned to
// GOMAXPROCS, so `go test -bench ScalingEngines -cpu 1,2,4,8` sweeps
// core counts and each point uses exactly the cores the runtime gives
// it (baseline and acceptance notes recorded in BENCH_scaling.json).
// Uniform traffic mostly crosses the root and falls back to the
// two-phase engine; local traffic is fully subtree-confined, the shard
// engine's zero-coordination fast path.
func BenchmarkScalingEngines(b *testing.B) {
	shapes := []struct{ l, m, w int }{{3, 8, 8}, {4, 8, 8}}
	for _, sh := range shapes {
		tree, err := NewFatTree(sh.l, sh.m, sh.w)
		if err != nil {
			b.Fatal(err)
		}
		const batch = 4096
		for _, traffic := range []string{"uniform", "local"} {
			reqs := scalingBatch(tree, batch, traffic == "local", 1)
			prefix := fmt.Sprintf("FT%dx%dx%d/batch%d/%s", sh.l, sh.m, sh.w, batch, traffic)
			run := func(name string, schedule func(*LinkState, []core.Request)) {
				b.Run(prefix+"/"+name, func(b *testing.B) {
					st := NewLinkState(tree)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st.Reset()
						schedule(st, reqs)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "requests/s")
				})
			}
			opts := core.Options{Rollback: true}
			lw, sc := &core.LevelWise{Opts: opts}, core.NewScratch()
			run("sequential", func(st *LinkState, reqs []core.Request) { lw.ScheduleInto(st, reqs, sc) })
			// Workers track GOMAXPROCS so the -cpu flag is the scaling
			// axis; the engines are built per sub-benchmark because
			// GOMAXPROCS changes between -cpu points.
			for _, mk := range []struct {
				name string
				cfg  func(workers int) parsched.Config
			}{
				{"deterministic", func(w int) parsched.Config {
					return parsched.Config{Workers: w, Mode: parsched.Deterministic, Opts: opts}
				}},
				{"shard", func(w int) parsched.Config {
					return parsched.Config{Workers: w, Mode: parsched.Shard, Opts: opts}
				}},
				{"shard+steal", func(w int) parsched.Config {
					return parsched.Config{Workers: w, Mode: parsched.Shard, Steal: true, Opts: opts}
				}},
			} {
				cfg := mk.cfg
				b.Run(prefix+"/"+mk.name, func(b *testing.B) {
					eng := parsched.New(cfg(runtime.GOMAXPROCS(0)))
					st := NewLinkState(tree)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st.Reset()
						eng.Schedule(st, reqs)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "requests/s")
				})
			}
		}
	}
}

// BenchmarkExtFailureLoci regenerates extension E11 (denial loci).
func BenchmarkExtFailureLoci(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtFailureLoci(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtStaleness regenerates extension E12 (global-view staleness).
func BenchmarkExtStaleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtStaleness(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtMulticast regenerates extension E13 (one-to-many trees).
func BenchmarkExtMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtMulticast(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtBacktrack regenerates extension E14 (bounded search).
func BenchmarkExtBacktrack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtBacktrack(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtAnalytic regenerates extension E15 (mean-field model).
func BenchmarkExtAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtAnalytic(benchPerms, 1); err != nil {
			b.Fatal(err)
		}
	}
}
