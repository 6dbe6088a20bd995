package main

// The closed-loop load driver shared by fabric-dense and http-sparse.
// Each client goroutine holds a few circuits FIFO: it releases its
// oldest, then connects the next pair of its own seeded stream and waits
// for the verdict, as a caller of the service waits for its circuit.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fabric"
)

// stream is one client's seeded sequence of uniform src != dst pairs.
type stream struct {
	rng   *rand.Rand
	nodes int
}

func newStream(seed int64, client, nodes int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), nodes: nodes}
}

func (s *stream) next() (src, dst int) {
	src = s.rng.Intn(s.nodes)
	dst = s.rng.Intn(s.nodes - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// circuit is a granted connection as the benchmark holds it.
type circuit interface{ Release() error }

// target is the layer a client drives: the federation router, a bare
// fabric manager, or ftserve over HTTP. A denial returns a nil circuit
// and an error matching fabric.ErrUnroutable; it is a verdict, not an
// error.
type target interface {
	connect(ctx context.Context, src, dst int) (circuit, error)
}

type loopConfig struct {
	clients, hold, nodes int
	seed                 int64
	warmup, measure      time.Duration
	latCap               int   // latency samples kept per client
	top                  layer // layer of the spans around target calls
	// monitor reads the target's stats every monitorEvery, timed, when
	// the target has them.
	monitor bool
	traced  bool
}

// monitored is a target whose stats a monitor goroutine can read.
type monitored interface{ stats() }

const monitorEvery = 10 * time.Millisecond

// relCap is the release samples kept per client; only their median is
// reported.
const relCap = 1 << 12

// loopResult is one closed-loop phase. Latencies and verdict counts
// cover the measured window, which is also split into one-second
// sub-windows; the operation counts cover the whole phase, including
// warm-up and the final release of every held circuit.
type loopResult struct {
	connect, release, monitor dist
	window                    time.Duration
	admits, granted, denied   int64
	sub                       time.Duration // sub-window length
	byWindow                  []dist        // connect latencies per sub-window
	winAdmits, winDecided     []int64       // round trips and verdicts per sub-window
	mallocs                   uint64        // allocations during the window
	attempted, failed         int64
	grantedAll, releasedAll   int64
	firstErr                  error
	recs                      []*recorder
}

type client struct {
	stream                *stream
	ring                  []circuit
	sub                   time.Duration
	lat                   []*latencies // per sub-window
	rel                   *latencies
	rec                   *recorder
	admits, granted       int64
	denied                int64
	winAdmits, winDecided []int64
	attempted, failed     int64
	grantedAll, relAll    int64
	firstErr              error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) release(slot int, id uint64, parent int64, top layer, in bool) {
	h := c.ring[slot]
	if h == nil {
		return
	}
	c.ring[slot] = nil
	sp := c.rec.begin(id, parent, top)
	t0 := time.Now()
	err := h.Release()
	d := time.Since(t0)
	c.rec.end(sp)
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("release: %w", err))
		return
	}
	c.relAll++
	if in {
		c.rel.add(d)
	}
}

func (c *client) run(ctx context.Context, t target, cfg *loopConfig, idBase uint64, windowStart, windowEnd time.Time) {
	for n := uint64(0); ; n++ {
		now := time.Now()
		if !now.Before(windowEnd) || ctx.Err() != nil {
			break
		}
		in := !now.Before(windowStart)
		w := 0
		if in {
			w = min(int(now.Sub(windowStart)/c.sub), len(c.lat)-1)
		}
		id := idBase + n
		slot := int(n % uint64(len(c.ring)))
		root := c.rec.begin(id, -1, layerBench)
		c.release(slot, id, root, cfg.top, in)
		src, dst := c.stream.next()
		sp := c.rec.begin(id, root, cfg.top)
		t0 := time.Now()
		h, err := t.connect(ctx, src, dst)
		d := time.Since(t0)
		c.rec.end(sp)
		c.rec.end(root)
		c.attempted++
		denied := errors.Is(err, fabric.ErrUnroutable)
		switch {
		case err == nil && h != nil:
			c.ring[slot] = h
			c.grantedAll++
		case denied:
		case err == nil:
			c.fail(errors.New("connect: nil circuit without an error"))
		default:
			c.fail(fmt.Errorf("connect: %w", err))
		}
		if in {
			c.lat[w].add(d)
			c.admits++
			c.winAdmits[w]++
			if c.ring[slot] != nil {
				c.granted++
				c.winDecided[w]++
			} else if denied {
				c.denied++
				c.winDecided[w]++
			}
		}
	}
	for slot := range c.ring {
		c.release(slot, 0, -1, cfg.top, false)
	}
}

// closedLoop runs cfg.clients clients against t, plus the monitor when
// one is set, and returns once every client has released everything.
func closedLoop(ctx context.Context, t target, cfg loopConfig) loopResult {
	start := time.Now()
	windowStart := start.Add(cfg.warmup)
	windowEnd := windowStart.Add(cfg.measure)
	windows := max(1, int(cfg.measure.Round(time.Second)/time.Second))
	sub := cfg.measure / time.Duration(windows)
	clients := make([]*client, cfg.clients)
	for i := range clients {
		clients[i] = &client{
			stream:     newStream(cfg.seed, i, cfg.nodes),
			ring:       make([]circuit, cfg.hold),
			sub:        sub,
			lat:        make([]*latencies, windows),
			rel:        newLatencies(relCap),
			winAdmits:  make([]int64, windows),
			winDecided: make([]int64, windows),
		}
		for w := range windows {
			clients[i].lat[w] = newLatencies(cfg.latCap / windows)
		}
		if cfg.traced {
			clients[i].rec = newRecorder(start, spanCap)
		}
	}
	var mon *latencies
	var monRec *recorder
	mt, canMonitor := t.(monitored)
	if cfg.monitor && canMonitor {
		mon = newLatencies(int(cfg.warmup+cfg.measure)/int(monitorEvery) + 2)
		if cfg.traced {
			monRec = newRecorder(start, spanCap)
		}
	}

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, t, &cfg, uint64(i)<<40, windowStart, windowEnd)
		}()
	}
	if mon != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(monitorEvery)
			defer tick.Stop()
			for n := uint64(0); ; n++ {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					if !now.Before(windowEnd) {
						return
					}
					sp := monRec.begin(n, -1, cfg.top)
					t0 := time.Now()
					mt.stats()
					mon.add(time.Since(t0))
					monRec.end(sp)
				}
			}
		}()
	}
	var lr loopResult
	sleepUntil(ctx, windowStart)
	m0 := mallocs()
	sleepUntil(ctx, windowEnd)
	lr.mallocs = mallocs() - m0
	wg.Wait()

	lr.window, lr.sub = cfg.measure, sub
	lr.winAdmits = make([]int64, windows)
	lr.winDecided = make([]int64, windows)
	var all []*latencies
	rels := make([]*latencies, len(clients))
	for i, c := range clients {
		all = append(all, c.lat...)
		rels[i] = c.rel
		for w := range windows {
			lr.winAdmits[w] += c.winAdmits[w]
			lr.winDecided[w] += c.winDecided[w]
		}
		lr.admits += c.admits
		lr.granted += c.granted
		lr.denied += c.denied
		lr.attempted += c.attempted
		lr.failed += c.failed
		lr.grantedAll += c.grantedAll
		lr.releasedAll += c.relAll
		if lr.firstErr == nil {
			lr.firstErr = c.firstErr
		}
		if c.rec != nil {
			lr.recs = append(lr.recs, c.rec)
		}
	}
	if monRec != nil {
		lr.recs = append(lr.recs, monRec)
	}
	lr.connect = mergeLatencies(all)
	for w := range windows {
		var lats []*latencies
		for _, c := range clients {
			lats = append(lats, c.lat[w])
		}
		lr.byWindow = append(lr.byWindow, mergeLatencies(lats))
	}
	lr.release = mergeLatencies(rels)
	if mon != nil {
		lr.monitor = mergeLatencies([]*latencies{mon})
	}
	return lr
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

func (lr *loopResult) admitPerSec() float64 { return float64(lr.admits) / lr.window.Seconds() }

// putAdmit records the end-to-end admission metrics of a phase. Rates
// and percentiles are medians over the one-second sub-windows, so a
// burst of host noise in a few of them does not move the result.
func (b *bench) putAdmit(lr *loopResult) {
	var admits, decided, p50, p90 []float64
	for w, d := range lr.byWindow {
		admits = append(admits, float64(lr.winAdmits[w])/lr.sub.Seconds())
		decided = append(decided, float64(lr.winDecided[w])/lr.sub.Seconds())
		p50 = append(p50, d.median())
		_, ns := d.tail(0.90)
		p90 = append(p90, ns)
	}
	b.put("sched_req_per_s", median(decided), "1/s")
	b.put("schedulability", float64(lr.granted)/float64(lr.granted+lr.denied), "ratio")
	b.put("admit_per_s", median(admits), "1/s")
	b.put("admit_p50_us", median(p50)/1e3, "us")
	b.put("admit_p90_us", median(p90)/1e3, "us")
	q, ns := lr.connect.tail(0.90)
	q99, ns99 := lr.connect.tail(0.99)
	b.note("admit_latency", map[string]any{"samples": lr.connect.count, "retained": len(lr.connect.sorted),
		"per_window_admits": lr.winAdmits, "whole_window_p50_us": lr.connect.median() / 1e3,
		"whole_window_p90_us": ns / 1e3, "p90_quantile": q, "p99_quantile": q99, "p99_us": ns99 / 1e3})
	b.note("release_latency", map[string]any{"samples": lr.release.count, "p50_us": lr.release.median() / 1e3})
}

// checkLoop fails the run on any operation error, and on any circuit
// not released exactly once.
func (b *bench) checkLoop(what string, lr *loopResult) {
	if lr.firstErr != nil {
		b.check(what, fmt.Errorf("%d of %d operations failed, first: %w", lr.failed, lr.attempted, lr.firstErr))
	}
	if lr.releasedAll != lr.grantedAll {
		b.check(what, fmt.Errorf("%d circuits granted, %d released", lr.grantedAll, lr.releasedAll))
	}
	if lr.admits == 0 {
		b.check(what, errors.New("no admission completed in the measured window"))
	}
}

// checkSettled verifies a plane's accounting once every client has
// released everything: each request was resolved exactly once, every
// granted circuit was released exactly once, and nothing is held.
func checkSettled(st fabric.Stats, granted int64) error {
	switch {
	case st.Offered != st.Granted+st.Rejected+st.Cancelled:
		return fmt.Errorf("offered %d != granted %d + rejected %d + cancelled %d",
			st.Offered, st.Granted, st.Rejected, st.Cancelled)
	case st.Granted != uint64(granted):
		return fmt.Errorf("plane granted %d, clients were granted %d", st.Granted, granted)
	case st.Released != st.Granted:
		return fmt.Errorf("granted %d, released %d", st.Granted, st.Released)
	case st.Active != 0 || st.Occupancy != 0:
		return fmt.Errorf("%d circuits and %d channels still held", st.Active, st.Occupancy)
	}
	return nil
}
