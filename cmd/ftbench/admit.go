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

// admitDist summarizes Connect round-trip times, in microseconds — the
// tail-latency fields every sweep mode emits. The closed loops record
// into one stats.Hist shared by every client: a few atomic adds that
// never allocate, so the allocs/op column measures the fabric and not
// the harness. The percentiles carry stats.Hist's bucket error (under
// stats.HistRelErr, about 3%).
type admitDist struct {
	N          int     `json:"admit_samples,omitempty"`
	AdmitP50us float64 `json:"admit_p50_us"`
	AdmitP95us float64 `json:"admit_p95_us"`
	AdmitP99us float64 `json:"admit_p99_us"`
}

// admitDistOf summarizes a run's admission latencies.
func admitDistOf(lat *stats.Hist) admitDist {
	s := lat.Snapshot()
	if s.N == 0 {
		return admitDist{}
	}
	return admitDist{
		N:          int(s.N),
		AdmitP50us: s.Quantile(50),
		AdmitP95us: s.Quantile(95),
		AdmitP99us: s.Quantile(99),
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
	var lat stats.Hist
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	counts, elapsed, loopErr := closedLoop(fab.Admit, tree.Nodes(), lcfg, false, &lat)
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
		admitDist:        admitDistOf(&lat),
	}, nil
}
