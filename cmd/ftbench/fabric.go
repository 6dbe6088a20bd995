package main

// The -fabric mode turns ftbench into a closed-loop load generator for
// the serving layer: N concurrent clients drive Connect/Release against
// an in-process fabric manager and the offered admission rate is
// measured, the serving-path analogue of extension E4's churn model
// (random endpoints, connections held across subsequent operations).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
)

// fabricBenchConfig parameterizes one closed-loop run.
type fabricBenchConfig struct {
	Levels, Children, Parents int
	Clients                   int           // concurrent closed-loop clients
	Batch                     int           // epoch flush threshold
	MaxWait                   time.Duration // epoch flush timer
	Open                      int           // circuits each client holds (FIFO churn)
	Duration                  time.Duration
	Timeout                   time.Duration // per-Connect admission timeout (0 = wait forever)
	Seed                      int64
	Scheduler                 string // admission engine spec ("" = fabric default)
}

func (cfg fabricBenchConfig) validate() error {
	if cfg.Clients <= 0 || cfg.Open <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("fabric bench: need positive clients (%d), open (%d), duration (%s)",
			cfg.Clients, cfg.Open, cfg.Duration)
	}
	return nil
}

// loopCounts aggregates the client-side view of one closed-loop run.
type loopCounts struct {
	admitted, denied, timedOut uint64
}

// offered is the total admission attempts the clients made.
func (c loopCounts) offered() uint64 { return c.admitted + c.denied + c.timedOut }

// schedulability is the fraction of attempts that were granted — the
// paper's schedulability ratio, measured at the client.
func (c loopCounts) schedulability() float64 {
	if c.offered() == 0 {
		return 0
	}
	return float64(c.admitted) / float64(c.offered())
}

// connectFunc admits one circuit: a Manager's Admit, or a closure over
// a federation Router's Connect.
type connectFunc func(ctx context.Context, src, dst int) (fabric.Conn, error)

// closedLoop drives cfg.Clients concurrent FIFO-churn clients through
// connect, over endpoints drawn from [0, nodes), until cfg.Duration
// elapses. In strict mode (chaotic=false) any unexpected client error —
// including ErrAdmitTimeout when cfg.Timeout is set — aborts the run
// and is returned, so a wedged
// server fails the run instead of hanging. With chaotic=true (faults
// being injected mid-run) timeouts are counted and revocation-related
// release errors are tolerated, since both are expected degraded-mode
// outcomes. lat records every Connect's wall time in microseconds (the
// admission round-trip each client observes) for tail-latency reporting.
func closedLoop(connect connectFunc, nodes int, cfg fabricBenchConfig, chaotic bool, lat *stats.Hist) (loopCounts, time.Duration, error) {
	var admitted, denied, timedOut atomic.Uint64
	deadline := time.Now().Add(cfg.Duration)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			var held []fabric.Conn
			defer func() {
				for _, h := range held {
					if err := h.Release(); err != nil && !chaotic && errs[id] == nil {
						errs[id] = fmt.Errorf("client %d final release: %w", id, err)
					}
				}
			}()
			for time.Now().Before(deadline) {
				// Churn: keep Open long-lived circuits, retiring the
				// oldest before each new admission.
				for len(held) >= cfg.Open {
					if err := held[0].Release(); err != nil && !chaotic {
						errs[id] = fmt.Errorf("client %d release: %w", id, err)
						return
					}
					held = held[1:]
				}
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				began := time.Now()
				h, err := connect(context.Background(), src, dst)
				lat.Record(float64(time.Since(began)) / float64(time.Microsecond))
				switch {
				case err == nil:
					admitted.Add(1)
					held = append(held, h)
				case errors.Is(err, fabric.ErrUnroutable) || errors.Is(err, fabric.ErrUnroutableDegraded):
					denied.Add(1)
				case errors.Is(err, fabric.ErrAdmitTimeout) && chaotic:
					timedOut.Add(1)
				default:
					errs[id] = fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return loopCounts{}, elapsed, err
		}
	}
	return loopCounts{admitted.Load(), denied.Load(), timedOut.Load()}, elapsed, nil
}

// fabricBench runs the closed-loop load generator and prints a summary.
func fabricBench(out io.Writer, cfg fabricBenchConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return err
	}
	fab, err := fabric.New(fabric.Config{
		Tree: tree, SchedulerSpec: cfg.Scheduler, BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
		AdmitTimeout: cfg.Timeout,
	})
	if err != nil {
		return err
	}

	var lat stats.Hist
	counts, elapsed, loopErr := closedLoop(fab.Admit, tree.Nodes(), cfg, false, &lat)
	if err := fab.Close(context.Background()); err != nil && loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return loopErr
	}

	s := fab.Stats()
	ad := admitDistOf(&lat)
	fmt.Fprintf(out, "fabric %s  clients=%d epoch=%d maxwait=%s open=%d duration=%s\n",
		tree, cfg.Clients, cfg.Batch, cfg.MaxWait, cfg.Open, cfg.Duration)
	fmt.Fprintf(out, "  admissions/sec %.0f  (offered %d, granted %d, rejected %d, blocking %.2f%%)\n",
		float64(counts.offered())/elapsed.Seconds(), s.Offered, s.Granted, s.Rejected,
		100*float64(s.Rejected)/float64(max(1, s.Offered)))
	fmt.Fprintf(out, "  epochs %d  size mean=%.1f p95=%.0f  latency ms p50=%.3f p95=%.3f p99=%.3f\n",
		s.Epochs, s.EpochSize.Mean, s.EpochSize.P95,
		s.EpochLatencyMS.P50, s.EpochLatencyMS.P95, s.EpochLatencyMS.P99)
	fmt.Fprintf(out, "  admit us p50=%.1f p95=%.1f p99=%.1f\n",
		ad.AdmitP50us, ad.AdmitP95us, ad.AdmitP99us)
	if cfg.Scheduler != "" {
		// fabric.New already accepted the spec, so it parses. The last
		// epoch's engine differs when that epoch fell back to the
		// sequential core (a parallel engine given a lone request).
		eng, _ := sched.Parse(cfg.Scheduler)
		fmt.Fprintf(out, "  engine %s  last epoch %s\n", eng.Name(), s.LastEpochEngine)
	}
	return nil
}
