package main

// The -admit mode sweeps the serving layer's admission round-trip cost
// across epoch sizes × client counts: the closed-loop generator of
// -fabric, but instrumented for tail latency (per-Connect wall time,
// p50/p95/p99) and allocation rate (process-wide mallocs per admission),
// the two signals the admission-pipeline work targets. Epoch size 1 is
// the round-trip-dominated regime — every request pays the full
// enqueue→flusher→verdict→wakeup cycle — while large epochs amortize
// it; the sweep records both so BENCH_admission.json carries the
// before/after of the control path, not the scheduler.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fabric"
	"repro/internal/stats"
	"repro/internal/topology"
)

// parseIntList parses a comma-separated list of positive ints
// ("1,8,64") — the -admit-epochs / -admit-clients grammar.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad list entry %q (want positive ints)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty int list %q", s)
	}
	return out, nil
}

// latRing retains the most recent admission-latency samples of one
// client, in microseconds. Fixed capacity, preallocated: recording must
// not allocate mid-run, or the allocs/op column would measure the
// harness instead of the fabric.
type latRing struct {
	buf  []float64
	n    int // valid samples
	next int // write cursor
}

func (r *latRing) add(us float64) {
	r.buf[r.next] = us
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// latRecorder is one lane per client, so recording is contention-free;
// dist merges the lanes after the run.
type latRecorder struct {
	lanes []latRing
}

// latSamplesPerClient bounds each client's retained samples; percentiles
// summarize the most recent window, which is the steady state.
const latSamplesPerClient = 4096

func newLatRecorder(clients int) *latRecorder {
	lr := &latRecorder{lanes: make([]latRing, clients)}
	for i := range lr.lanes {
		lr.lanes[i].buf = make([]float64, latSamplesPerClient)
	}
	return lr
}

// record stores one Connect round-trip for client id.
func (lr *latRecorder) record(id int, d time.Duration) {
	lr.lanes[id].add(float64(d) / float64(time.Microsecond))
}

// admitDist summarizes the merged admission-latency samples, in
// microseconds — the tail-latency fields every sweep mode emits.
type admitDist struct {
	N          int     `json:"admit_samples,omitempty"`
	AdmitP50us float64 `json:"admit_p50_us"`
	AdmitP95us float64 `json:"admit_p95_us"`
	AdmitP99us float64 `json:"admit_p99_us"`
}

// dist merges every lane and computes the percentiles. A nil recorder
// yields the zero dist, so call sites can thread "no recording" through.
func (lr *latRecorder) dist() admitDist {
	if lr == nil {
		return admitDist{}
	}
	var merged []float64
	for i := range lr.lanes {
		r := &lr.lanes[i]
		merged = append(merged, r.buf[:r.n]...)
	}
	if len(merged) == 0 {
		return admitDist{}
	}
	return admitDist{
		N:          len(merged),
		AdmitP50us: stats.Percentile(merged, 50),
		AdmitP95us: stats.Percentile(merged, 95),
		AdmitP99us: stats.Percentile(merged, 99),
	}
}

// admitBenchConfig parameterizes the admission-pipeline sweep.
type admitBenchConfig struct {
	Levels, Children, Parents int
	EpochSizes                []int // epoch flush thresholds to sweep
	ClientCounts              []int // closed-loop client pools to sweep
	Open                      int
	MaxWait                   time.Duration
	Duration                  time.Duration
	Timeout                   time.Duration
	Seed                      int64
	JSONPath                  string
}

// admitResult is one (epoch size, clients) point.
type admitResult struct {
	EpochSize        int     `json:"epoch_size"`
	Clients          int     `json:"clients"`
	Offered          uint64  `json:"offered"`
	Granted          uint64  `json:"granted"`
	AdmissionsPerSec float64 `json:"admissions_per_sec"`
	// NsPerOp is wall time per admission (1e9 / admissions_per_sec),
	// comparable to BENCH_fabric.json's ns_per_op column.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is process-wide heap allocations per admission over
	// the run — serving-path allocations (the granted Handle, map
	// bookkeeping) plus nothing from the enqueue hot path when the
	// ticket pool holds.
	AllocsPerOp float64 `json:"allocs_per_op"`
	admitDist
}

// admitReport is the JSON body the sweep writes (BENCH_admission.json
// derives from two of these, before and after).
type admitReport struct {
	Tree       string        `json:"tree"`
	Open       int           `json:"open"`
	MaxWaitUS  int64         `json:"max_wait_us"`
	Duration   string        `json:"duration"`
	Seed       int64         `json:"seed"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []admitResult `json:"results"`
}

// admitBench runs the epoch-size × client-count grid and prints one row
// per point.
func admitBench(out io.Writer, cfg admitBenchConfig) error {
	if cfg.Open <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("admit bench: need positive open (%d) and duration (%s)", cfg.Open, cfg.Duration)
	}
	if len(cfg.EpochSizes) == 0 || len(cfg.ClientCounts) == 0 {
		return fmt.Errorf("admit bench: empty epoch-size or client list")
	}
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return err
	}
	report := admitReport{
		Tree: tree.String(), Open: cfg.Open,
		MaxWaitUS: cfg.MaxWait.Microseconds(), Duration: cfg.Duration.String(),
		Seed: cfg.Seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(out, "admit sweep %s  open=%d maxwait=%s duration=%s\n",
		tree, cfg.Open, cfg.MaxWait, cfg.Duration)
	for _, epoch := range cfg.EpochSizes {
		for _, clients := range cfg.ClientCounts {
			res, err := admitPoint(tree, cfg, epoch, clients)
			if err != nil {
				return err
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(out, "  epoch=%-3d clients=%-3d  %8.0f adm/sec  %8.0f ns/op  %6.2f allocs/op  admit us p50=%.1f p95=%.1f p99=%.1f\n",
				epoch, clients, res.AdmissionsPerSec, res.NsPerOp, res.AllocsPerOp,
				res.AdmitP50us, res.AdmitP95us, res.AdmitP99us)
		}
	}
	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}

// admitPoint measures one grid point: a fresh manager, a closed loop of
// the given shape, and the malloc delta across the timed region.
func admitPoint(tree *topology.Tree, cfg admitBenchConfig, epoch, clients int) (admitResult, error) {
	fab, err := fabric.New(fabric.Config{
		Tree: tree, BatchSize: epoch, MaxWait: cfg.MaxWait, AdmitTimeout: cfg.Timeout,
	})
	if err != nil {
		return admitResult{}, err
	}
	lcfg := fabricBenchConfig{
		Levels: cfg.Levels, Children: cfg.Children, Parents: cfg.Parents,
		Clients: clients, Batch: epoch, Open: cfg.Open,
		MaxWait: cfg.MaxWait, Duration: cfg.Duration, Seed: cfg.Seed,
		Timeout: cfg.Timeout,
	}
	rec := newLatRecorder(clients)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	counts, elapsed, loopErr := closedLoop(fab, tree, lcfg, false, rec)
	runtime.ReadMemStats(&after)
	s := fab.Stats()
	if err := fab.Close(context.Background()); err != nil && loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return admitResult{}, loopErr
	}
	ops := counts.offered()
	if ops == 0 {
		return admitResult{}, fmt.Errorf("admit bench: epoch=%d clients=%d made no admissions", epoch, clients)
	}
	perSec := float64(ops) / elapsed.Seconds()
	return admitResult{
		EpochSize: epoch, Clients: clients,
		Offered: s.Offered, Granted: s.Granted,
		AdmissionsPerSec: perSec,
		NsPerOp:          1e9 / perSec,
		AllocsPerOp:      float64(after.Mallocs-before.Mallocs) / float64(ops),
		admitDist:        rec.dist(),
	}, nil
}
