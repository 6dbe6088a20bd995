package main

// fabric-dense: an in-process federation.Router built exactly as ftserve
// builds one from its default flags (one plane of FT(3,8,8), the
// level-wise,rollback engine, batch 32, MaxWait 2 ms), driven by 64
// closed-loop clients holding 4 circuits each and a monitor reading
// Stats every 10 ms. Epochs fill to the batch size through the inline
// flush, so the epoch pipeline, the release ring and Stats lock
// contention do the work, and about 256 held circuits keep
// schedulability near 0.9, where the quality of the Level-wise choices
// shows.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/federation"
	"repro/internal/topology"
)

var denseShape = [3]int{3, 8, 8}

const (
	denseClients = 64
	denseHold    = 4
	// denseLatCap samples per client cover ~15 s at the rate this
	// workload runs on a 2-CPU host; longer runs keep the last ones of
	// each sub-window.
	denseLatCap = 1 << 16
	closeLimit  = 10 * time.Second
	// routerSetups is how often set-up builds the router; it takes well
	// under a millisecond, so the median needs more repeats than the
	// paper tree's.
	routerSetups = 41
)

// fabricConfig is the plane configuration of ftserve's default flags.
func fabricConfig(tree *topology.Tree) fabric.Config {
	return fabric.Config{
		Tree:          tree,
		SchedulerSpec: engineSpec,
		BatchSize:     fabric.DefaultBatchSize,
		MaxWait:       fabric.DefaultMaxWait,
		QueueLimit:    fabric.DefaultQueueLimit,
	}
}

func newRouter() (*federation.Router, error) {
	tree, err := topology.New(denseShape[0], denseShape[1], denseShape[2])
	if err != nil {
		return nil, err
	}
	return federation.New(federation.Config{
		Policy: federation.PolicyHash,
		Planes: []federation.PlaneConfig{{Fabric: fabricConfig(tree)}},
	})
}

type routerTarget struct{ r *federation.Router }

func (t routerTarget) connect(ctx context.Context, src, dst int) (circuit, error) {
	h, err := t.r.Connect(ctx, src, dst)
	if h == nil {
		return nil, err
	}
	return h, err
}

type managerTarget struct{ m *fabric.Manager }

func (t managerTarget) connect(ctx context.Context, src, dst int) (circuit, error) {
	h, err := t.m.Connect(ctx, src, dst)
	if h == nil {
		return nil, err
	}
	return h, err
}

func (t routerTarget) stats() { t.r.Stats() }

func (t managerTarget) stats() { t.m.Stats() }

func denseLoop(seed int64, warmup, measure time.Duration, traced bool) loopConfig {
	return loopConfig{clients: denseClients, hold: denseHold, seed: seed,
		warmup: warmup, measure: measure, latCap: denseLatCap, monitor: true,
		top: layerFederation, traced: traced}
}

// planeDelta is what a plane and its router counted during one phase.
type planeDelta struct {
	offered, epochs     uint64
	overflow, cancelled uint64
	failovers           uint64
}

func deltaOf(after, before federation.Stats) planeDelta {
	a, b := after.Planes[0].Fabric, before.Planes[0].Fabric
	return planeDelta{
		offered:   a.Offered - b.Offered,
		epochs:    a.Epochs - b.Epochs,
		overflow:  a.Overflow - b.Overflow,
		cancelled: a.Cancelled - b.Cancelled,
		failovers: after.Failovers - before.Failovers,
	}
}

func (pd planeDelta) epochSizeMean() float64 { return float64(pd.offered) / float64(max(pd.epochs, 1)) }

// putPlane records the per-layer counters of a workload's own plane.
func (b *bench) putPlane(pd planeDelta) {
	b.put("fabric.epoch_size_mean", pd.epochSizeMean(), "count")
	b.put("fabric.overflow", float64(pd.overflow), "count")
	b.put("fabric.cancelled", float64(pd.cancelled), "count")
	b.put("federation.failovers", float64(pd.failovers), "count")
}

// routerPhase drives a fresh router, checks its accounting after the
// clients release everything and again after it closes, and returns
// the loop with what the router counted.
func (b *bench) routerPhase(r *federation.Router, cfg loopConfig) (loopResult, planeDelta, error) {
	cfg.nodes = r.Nodes()
	lr := closedLoop(b.ctx, routerTarget{r}, cfg)
	b.count(lr.attempted, lr.failed)
	b.checkLoop("router loop", &lr)
	rs := r.Stats()
	if len(rs.Planes) != 1 {
		return lr, planeDelta{}, fmt.Errorf("router reports %d planes, want 1", len(rs.Planes))
	}
	st := rs.Planes[0].Fabric
	b.check("router accounting", checkSettled(st, lr.grantedAll))
	if rs.Granted != uint64(lr.grantedAll) || rs.Offered != rs.Granted+rs.Rejected {
		b.check("router accounting", fmt.Errorf("router offered %d, granted %d, rejected %d; clients were granted %d",
			rs.Offered, rs.Granted, rs.Rejected, lr.grantedAll))
	}
	plane, _ := r.Plane(rs.Planes[0].Name)
	ctx, cancel := context.WithTimeout(b.ctx, closeLimit)
	defer cancel()
	b.check("router close", r.Close(ctx))
	b.check("plane after close", checkSettled(plane.Stats(), lr.grantedAll))
	if occ := plane.Occupancy(); occ != 0 {
		b.check("plane after close", fmt.Errorf("occupancy %d", occ))
	}
	// A fresh router counted nothing before this phase.
	return lr, deltaOf(rs, federation.Stats{Planes: make([]federation.PlaneStats, 1)}), nil
}

// managerPhase drives a bare fabric.Manager with the router's plane
// configuration and the same request streams: the router one layer down.
func (b *bench) managerPhase(cfg loopConfig) (loopResult, error) {
	tree, err := topology.New(denseShape[0], denseShape[1], denseShape[2])
	if err != nil {
		return loopResult{}, err
	}
	m, err := fabric.New(fabricConfig(tree))
	if err != nil {
		return loopResult{}, err
	}
	cfg.nodes = tree.Nodes()
	lr := closedLoop(b.ctx, managerTarget{m}, cfg)
	b.count(lr.attempted, lr.failed)
	b.checkLoop("manager loop", &lr)
	b.check("manager accounting", checkSettled(m.Stats(), lr.grantedAll))
	ctx, cancel := context.WithTimeout(b.ctx, closeLimit)
	defer cancel()
	b.check("manager close", m.Close(ctx))
	b.check("manager after close", checkSettled(m.Stats(), lr.grantedAll))
	return lr, nil
}

// warmupFor is the unmeasured start of a closed loop: a tenth of the
// run, at most a second.
func warmupFor(d time.Duration) time.Duration { return min(time.Second, d/10) }

// within splits a phase of length d into warm-up and measured window.
func within(d time.Duration) (warmup, measure time.Duration) {
	return warmupFor(d), d - warmupFor(d)
}

func runDense(b *bench) error {
	if b.traced {
		return b.tracedRun(denseRung, b.denseTraced)
	}
	var setups []time.Duration
	var r *federation.Router
	for i := range routerSetups {
		t0 := time.Now()
		nr, err := newRouter()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		if i < routerSetups-1 {
			b.check("router close", nr.Close(b.ctx))
		}
		r = nr
	}
	b.put("setup_s", median(setups)/1e9, "s")
	b.put("heap_mb", heapMB(), "MB")
	lr, pd, err := b.routerPhase(r, denseLoop(b.seed, warmupFor(b.dur), b.dur, false))
	if err != nil {
		return err
	}
	b.putAdmit(&lr)
	b.note("monitor_stats_us", lr.monitor.median()/1e3)
	b.note("epoch_size_mean", pd.epochSizeMean())
	return nil
}

// denseRung measures fabric and federation: the router phase untraced,
// then the same streams against a bare Manager. federation.self_ns is
// the difference of their median Connect round trips.
func denseRung(b *bench, budget time.Duration) (float64, error) {
	warmup, measure := within(budget / 2)
	r, err := newRouter()
	if err != nil {
		return 0, err
	}
	rl, pd, err := b.routerPhase(r, denseLoop(b.seed, warmup, measure, false))
	if err != nil {
		return 0, err
	}
	b.putPlane(pd)
	b.put("fabric.stats_us", rl.monitor.median()/1e3, "us")

	ml, err := b.managerPhase(denseLoop(b.seed, warmup, measure, false))
	if err != nil {
		return 0, err
	}
	b.put("fabric.connect_p50_us", ml.connect.median()/1e3, "us")
	_, p90 := ml.connect.tail(0.90)
	b.put("fabric.connect_p90_us", p90/1e3, "us")
	b.put("fabric.release_ns", ml.release.median(), "ns")
	b.put("fabric.allocs_per_trip", float64(ml.mallocs)/float64(ml.admits), "count")
	b.put("federation.self_ns", selfNS(rl.connect, ml.connect), "ns")
	b.note("dense_rung", map[string]any{"router_samples": rl.connect.count, "manager_samples": ml.connect.count})
	return rl.admitPerSec(), nil
}

// denseTraced is the traced phase of fabric-dense: a span per client
// operation, one around each Router call, one per monitor Stats call.
func (b *bench) denseTraced(d time.Duration) (float64, []*recorder, error) {
	r, err := newRouter()
	if err != nil {
		return 0, nil, err
	}
	warmup, measure := within(d)
	lr, _, err := b.routerPhase(r, denseLoop(b.seed, warmup, measure, true))
	if err != nil {
		return 0, nil, err
	}
	return lr.admitPerSec(), lr.recs, nil
}
