package main

// paper-batch: the paper's own workload. Seeded random permutations
// (Fig. 9 traffic) on the largest tree, FT(4,16,16) with 65,536 nodes,
// each scheduled by the registry's Level-wise engine on a Reset link
// state with one reused Scratch. core, linkstate and topology do all the
// work; the serving stack does none.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	engineSpec = "level-wise,rollback"
	// paperPool permutations are cycled through. Rescheduling one on a
	// Reset state must give the same result, which the loop checks.
	paperPool = 4
	// setupRepeats is how often set-up is repeated; setup_s is the median.
	setupRepeats = 11
	// spanCap bounds each goroutine's retained spans.
	spanCap = 1024
)

var paperShape = [3]int{4, 16, 16}

// schedStack is the scheduler below the serving layer: tree, link
// state, registry engine and its reused scratch.
type schedStack struct {
	tree *topology.Tree
	st   *linkstate.State
	eng  sched.Engine
	sc   *core.Scratch
}

// buildStack builds a stack and reports the tree's share of the time.
func buildStack(shape [3]int) (*schedStack, time.Duration, error) {
	t0 := time.Now()
	tree, err := topology.New(shape[0], shape[1], shape[2])
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	eng, err := sched.Parse(engineSpec)
	if err != nil {
		return nil, 0, err
	}
	return &schedStack{tree: tree, st: linkstate.New(tree), eng: eng, sc: core.NewScratch()}, build, nil
}

// setupStack builds the stack setupRepeats times and keeps the last.
func setupStack(shape [3]int) (s *schedStack, setup, build time.Duration, err error) {
	var setups, builds []time.Duration
	for range setupRepeats {
		t0 := time.Now()
		var bt time.Duration
		if s, bt, err = buildStack(shape); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, bt)
	}
	return s, time.Duration(median(setups)), time.Duration(median(builds)), nil
}

func permutations(n int, seed int64) [][]core.Request {
	return traffic.NewGenerator(n, seed).Permutations(paperPool)
}

// paperLoop is one run of the workload: batch after batch until d has
// passed. Only Reset and ScheduleInto are timed, in the thread's CPU
// time (see threadCPU); Verify, the determinism check and a forced
// collection run between batches, so no collection overlaps a timed
// pass.
type paperLoop struct {
	reqs        int64
	passGranted [paperPool]int
	poolReqs    int64
	poolGranted int64
	resetNS     int64 // CPU time
	schedNS     int64 // CPU time
	wallNS      int64 // wall time of the timed passes, for the record
	batchLat    *latencies
	resetLat    *latencies
	ops         core.Counters
	windows     []paperWindow // one per second of the loop
}

// paperWindow is what one second of the loop scheduled, and the time
// its timed passes took.
type paperWindow struct {
	batches, reqs, ns int64
}

func (b *bench) runPaperLoop(s *schedStack, perms [][]core.Request, d time.Duration, rec *recorder, after func(*core.Result)) (*paperLoop, error) {
	pl := &paperLoop{batchLat: newLatencies(1 << 14), resetLat: newLatencies(1 << 14),
		windows: make([]paperWindow, max(1, int(d/time.Second)))}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		reqs := perms[i%len(perms)]
		// An untimed pass first, so the timed one finds the caches as a
		// scheduler that does nothing else would, not as Verify and the
		// collection below leave them.
		s.st.Reset()
		s.eng.ScheduleInto(s.st, reqs, s.sc)
		root := rec.begin(uint64(i), -1, layerBench)
		t0 := time.Now()
		c0, err0 := threadCPU()
		sp := rec.begin(uint64(i), root, layerLinkstate)
		s.st.Reset()
		rec.end(sp)
		c1, err1 := threadCPU()
		sp = rec.begin(uint64(i), root, layerCore)
		res := s.eng.ScheduleInto(s.st, reqs, s.sc)
		rec.end(sp)
		c2, err2 := threadCPU()
		t2 := time.Now()
		rec.end(root)
		if err := errors.Join(err0, err1, err2); err != nil {
			return nil, err
		}

		w := &pl.windows[min(int(t0.Sub(start)/time.Second), len(pl.windows)-1)]
		w.batches++
		w.reqs += int64(len(reqs))
		w.ns += int64(c2 - c0)
		pl.reqs += int64(len(reqs))
		pl.resetNS += int64(c1 - c0)
		pl.schedNS += int64(c2 - c1)
		pl.wallNS += int64(t2.Sub(t0))
		pl.batchLat.add(c2 - c0)
		pl.resetLat.add(c1 - c0)
		pl.ops.Add(res.Ops)
		if err := core.Verify(s.tree, res); err != nil {
			b.check("core.Verify", err)
			return pl, nil
		}
		if res.Total != len(reqs) {
			b.check("paper-batch", fmt.Errorf("batch %d: result covers %d of %d requests", i, res.Total, len(reqs)))
			return pl, nil
		}
		if k := i % paperPool; i < paperPool {
			pl.passGranted[k] = res.Granted
			pl.poolReqs += int64(res.Total)
			pl.poolGranted += int64(res.Granted)
		} else if res.Granted != pl.passGranted[k] {
			b.check("paper-batch", fmt.Errorf("permutation %d granted %d, then %d on a reset state", k, pl.passGranted[k], res.Granted))
			return pl, nil
		}
		if after != nil {
			after(res)
		}
		runtime.GC()
	}
	return pl, nil
}

func (pl *paperLoop) reqPerSec() float64 {
	return float64(pl.reqs) / (float64(pl.resetNS+pl.schedNS) / 1e9)
}

// windowRates are the loop's requests and batches per second of timed
// passes, the median over its one-second windows, so a burst of host
// noise in a few of them does not move the result.
func (pl *paperLoop) windowRates() (reqs, batches float64) {
	var rs, bs []float64
	for _, w := range pl.windows {
		if w.batches > 0 {
			rs = append(rs, float64(w.reqs)/(float64(w.ns)/1e9))
			bs = append(bs, float64(w.batches)/(float64(w.ns)/1e9))
		}
	}
	return median(rs), median(bs)
}

func (pl *paperLoop) schedulability() float64 {
	return float64(pl.poolGranted) / float64(pl.poolReqs)
}

func runPaper(b *bench) error {
	if b.traced {
		return b.tracedRun(paperRung, b.paperTraced)
	}
	s, setup, _, err := setupStack(paperShape)
	if err != nil {
		return err
	}
	b.put("setup_s", setup.Seconds(), "s")
	b.put("heap_mb", heapMB(), "MB")
	perms := permutations(s.tree.Nodes(), b.seed)
	pl, err := b.runPaperLoop(s, perms, b.dur, nil, nil)
	if err != nil {
		return err
	}
	b.count(pl.reqs, 0)
	lat := mergeLatencies([]*latencies{pl.batchLat})
	reqs, batches := pl.windowRates()
	b.put("sched_req_per_s", reqs, "1/s")
	b.put("schedulability", pl.schedulability(), "ratio")
	b.put("admit_per_s", batches, "1/s")
	b.put("admit_p50_us", lat.median()/1e3, "us")
	q, ns := lat.tail(0.90)
	b.put("admit_p90_us", ns/1e3, "us")
	q99, ns99 := lat.tail(0.99)
	b.note("batch_latency", map[string]any{"samples": lat.count, "p90_quantile": q,
		"p99_quantile": q99, "p99_us": ns99 / 1e3, "requests_per_batch": s.tree.Nodes()})
	b.note("wall_sched_req_per_s", float64(pl.reqs)/(float64(pl.wallNS)/1e9))
	return nil
}

// paperTraced is the traced phase of paper-batch: the same loop with a
// span per batch and one per call into linkstate and core.
func (b *bench) paperTraced(d time.Duration) (float64, []*recorder, error) {
	s, _, err := buildStack(paperShape)
	if err != nil {
		return 0, nil, err
	}
	rec := newRecorder(time.Now(), spanCap)
	pl, err := b.runPaperLoop(s, permutations(s.tree.Nodes(), b.seed), d, rec, nil)
	if err != nil {
		return 0, nil, err
	}
	b.count(pl.reqs, 0)
	return pl.reqPerSec(), []*recorder{rec}, nil
}

// paperRung measures topology, linkstate and core on paper-batch. The
// granted routes of every result are replayed one layer down: a
// RouteCursor walk alone, then the walk with AvailBothWord and
// AllocateBoth on a second link state, whose cost less the walk's is the
// link-state work per level step.
func paperRung(b *bench, budget time.Duration) (float64, error) {
	_, _, build, err := setupStack(paperShape)
	if err != nil {
		return 0, err
	}
	b.put("topology.build_ms", float64(build)/1e6, "ms")

	s, _, err := buildStack(paperShape)
	if err != nil {
		return 0, err
	}
	before := heapMB()
	st := linkstate.New(s.tree)
	b.put("linkstate.heap_mb", heapMB()-before, "MB")
	s.st = st
	perms := permutations(s.tree.Nodes(), b.seed)

	// The first batch sizes the scratch; allocations are counted after it.
	s.eng.ScheduleInto(s.st, perms[0], s.sc)
	m0 := mallocs()
	for _, reqs := range perms[:2] {
		s.st.Reset()
		s.eng.ScheduleInto(s.st, reqs, s.sc)
	}
	b.put("core.allocs_per_req", float64(mallocs()-m0)/float64(len(perms[0])+len(perms[1])), "count")

	replay := linkstate.New(s.tree)
	var walkNS, allocNS, routes, steps int64
	var sink int
	after := func(res *core.Result) {
		t0 := time.Now()
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			if !o.Granted || o.H == 0 {
				continue
			}
			var c topology.RouteCursor
			c.Start(s.tree, o.Src, o.Dst)
			for _, p := range o.Ports {
				c.Advance(p)
			}
			sink += c.Sigma()
		}
		t1 := time.Now()
		replay.Reset()
		t2 := time.Now()
		var bad error
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			if !o.Granted || o.H == 0 {
				continue
			}
			var c topology.RouteCursor
			c.Start(s.tree, o.Src, o.Dst)
			for h, p := range o.Ports {
				w := replay.AvailBothWord(h, c.Sigma(), c.Delta())
				if w&(1<<p) == 0 && bad == nil {
					bad = fmt.Errorf("granted route %d→%d finds port %d busy at level %d on replay", o.Src, o.Dst, p, h)
				}
				replay.AllocateBoth(h, c.Sigma(), c.Delta(), p)
				c.Advance(p)
			}
			sink += c.Sigma()
			routes++
			steps += int64(len(o.Ports))
		}
		t3 := time.Now()
		b.check("linkstate replay", bad)
		walkNS += int64(t1.Sub(t0))
		allocNS += int64(t3.Sub(t2))
	}
	pl, err := b.runPaperLoop(s, perms, budget, nil, after)
	if err != nil {
		return 0, err
	}
	b.count(pl.reqs, 0)
	b.note("paper_replay", map[string]any{"routes": routes, "level_steps": steps, "checksum": sink & 1})
	b.put("topology.cursor_walk_ns", float64(walkNS)/float64(routes), "ns")
	b.put("linkstate.avail_alloc_ns", float64(allocNS-walkNS)/float64(steps), "ns")
	b.put("linkstate.reset_us", mergeLatencies([]*latencies{pl.resetLat}).median()/1e3, "us")
	b.put("core.schedule_ns_per_req", float64(pl.schedNS)/float64(pl.reqs), "ns")
	o := pl.ops
	b.put("core.ops_per_req", float64(o.VectorReads+o.VectorANDs+o.PortPicks+o.Allocs+o.Releases+o.Steps)/float64(pl.reqs), "count")
	return pl.reqPerSec(), nil
}

// epochRung times ScheduleInto on 32-request epochs at the occupancy
// fabric-dense holds: uniform seeded pairs on FT(3,8,8), with the
// 256 most recent requests held (granted ones hold their routes) and
// the 32 oldest released before each epoch, as the fabric does.
func epochRung(b *bench, budget time.Duration) (float64, error) {
	s, _, err := buildStack(denseShape)
	if err != nil {
		return 0, err
	}
	const epoch, held = 32, denseClients * denseHold
	stream := newStream(b.seed, 0, s.tree.Nodes())
	type route struct {
		src, dst int
		ports    []int
	}
	fifo := make([]route, 0, held+epoch)
	reqs := make([]core.Request, epoch)
	lat := newLatencies(1 << 16)
	var granted, decided int64
	start := time.Now()
	for n := 0; time.Since(start) < budget || n < held/epoch+1; n++ {
		if len(fifo) >= held {
			for _, r := range fifo[:epoch] {
				if r.ports != nil {
					if err := s.st.ReleasePath(r.src, r.dst, r.ports); err != nil {
						b.check("linkstate.ReleasePath", err)
						return 0, nil
					}
				}
			}
			fifo = append(fifo[:0], fifo[epoch:]...)
		}
		for i := range reqs {
			reqs[i].Src, reqs[i].Dst = stream.next()
		}
		t0 := time.Now()
		res := s.eng.ScheduleInto(s.st, reqs, s.sc)
		d := time.Since(t0)
		if len(fifo) >= held-epoch {
			lat.add(d)
			granted += int64(res.Granted)
			decided += int64(res.Total)
		}
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			r := route{src: o.Src, dst: o.Dst}
			if o.Granted && o.H > 0 {
				r.ports = append([]int(nil), o.Ports...)
			}
			fifo = append(fifo, r)
		}
	}
	b.count(decided, 0)
	b.note("epoch32", map[string]any{"epochs": lat.n, "schedulability": float64(granted) / float64(decided)})
	b.put("core.epoch32_us", mergeLatencies([]*latencies{lat}).median()/1e3, "us")
	return float64(decided) / time.Since(start).Seconds(), nil
}
