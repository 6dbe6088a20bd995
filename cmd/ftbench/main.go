// Command ftbench regenerates the paper's complete evaluation: Figure
// 9(a)–(d), Table 1, the Section 4 complexity comparison, and (unless
// -paper-only) the ablations and extensions indexed in DESIGN.md.
//
// Usage:
//
//	ftbench [-perms 100] [-seed 1] [-paper-only] [-csv dir]
//
// With -csv, each figure/table is additionally written as a CSV file into
// the given directory for external plotting.
//
// With -cpuprofile / -memprofile, the run writes pprof profiles (CPU
// sampled across the whole run, heap snapshotted at exit after a final
// GC) for `go tool pprof`; they compose with every mode, so the fabric
// closed-loop generator can be profiled the same way as the paper suite.
//
// With -fabric, ftbench instead runs a closed-loop load generator against
// the concurrent serving layer (internal/fabric) and reports
// admissions/sec; the -fabric-* flags size the tree, the client pool, and
// the epoch batching, and -fabric-scheduler names the admission engine in
// the registry grammar — the one engine switch, e.g.
// "parallel,mode=shard,workers=8,steal" for the parallel engine.
//
// With -chaos, the closed-loop generator additionally injects a seeded
// fault/repair schedule mid-run and sweeps the -chaos-rates link failure
// rates, reporting the schedulability ratio and repair latency at each
// rate (EXPERIMENTS.md E17).
//
// With -gray, ftbench runs the gray-failure resilience sweep
// (EXPERIMENTS.md E21): seeded *flaky* links flap up and down on a fixed
// clock while closed-loop clients run, exercising flap damping, the
// repair retry budget, and reuse-cost-aware repair placement; each
// -gray-rates point runs with reuse-cost scoring off and on over
// bit-identical churn, and a final two-plane point injects a
// slow-but-alive DegradedPlane process and reports the health score and
// breaker state.
//
// With -churn, ftbench runs the arrival/departure churn comparison
// (EXPERIMENTS.md E20): one seeded workload of circuit arrivals with
// exponential lifetimes served by batch-replay, incremental, and
// incremental+reuse-cost scheduling, reporting schedulability, grants
// per second of scheduler time, and route churn per epoch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/report"
)

func main() {
	perms := flag.Int("perms", experiments.DefaultPermutations, "random permutations per test point (paper: 100)")
	seed := flag.Int64("seed", 1, "root seed for all workloads")
	paperOnly := flag.Bool("paper-only", false, "run only the paper's own evaluation (Figure 9, Table 1)")
	workers := flag.Int("workers", 4, "parallel workers for the sweeps and extensions")
	only := flag.String("only", "", "run only suite components whose id contains this (e.g. e12, a1, fig9, table1)")
	csvDir := flag.String("csv", "", "directory to additionally write CSV files into")
	jsonDir := flag.String("json", "", "directory to additionally write JSON files into")
	fabricMode := flag.Bool("fabric", false, "run the closed-loop fabric load generator instead of the paper suite")
	fabricLevels := flag.Int("fabric-levels", 3, "fabric bench: switch levels l")
	fabricChildren := flag.Int("fabric-children", 8, "fabric bench: children per switch m")
	fabricParents := flag.Int("fabric-parents", 8, "fabric bench: parents per switch w")
	fabricClients := flag.Int("fabric-clients", 64, "fabric bench: concurrent closed-loop clients")
	fabricBatch := flag.Int("fabric-batch", fabric.DefaultBatchSize, "fabric bench: epoch flush threshold (1 disables batching)")
	fabricOpen := flag.Int("fabric-open", 4, "fabric bench: circuits each client holds open")
	fabricMaxWait := flag.Duration("fabric-maxwait", 500*time.Microsecond, "fabric bench: epoch flush timer")
	fabricDuration := flag.Duration("fabric-duration", 2*time.Second, "fabric bench: run length")
	fabricSched := flag.String("fabric-scheduler", "", "fabric bench: admission engine spec (internal/sched registry grammar; \"\" = fabric default)")
	fabricTimeout := flag.Duration("fabric-timeout", 0, "fabric bench: per-Connect admission timeout; a wedged server fails the run (0 = wait forever)")
	planesFlag := flag.String("planes", "", "run the federation sweep over these comma-separated plane counts (e.g. \"1,2,4\") with the -fabric-* shape/client flags")
	planePolicies := flag.String("plane-policies", "round-robin", "federation sweep: comma-separated plane selection policies")
	planesConfig := flag.String("planes-config", "", "federation sweep: run one point from this multi-plane JSON config (from `fttopo gen`) instead of the -planes grid")
	planesJSON := flag.String("planes-json", "", "federation sweep: also write the results as JSON to this file")
	churnMode := flag.Bool("churn", false, "run the arrival/departure churn comparison: batch-replay vs incremental (delta-epoch) scheduling on one seeded workload")
	churnRate := flag.Int("churn-rate", 16, "churn: fresh arrivals per epoch")
	churnLife := flag.Float64("churn-life", 8, "churn: mean circuit lifetime in epochs (exponential)")
	churnEpochs := flag.Int("churn-epochs", 200, "churn: epochs to simulate")
	churnReuse := flag.Int("churn-reuse", 4, "churn: reuse-cost cap K for the incremental+reuse discipline (0 skips it)")
	churnJSON := flag.String("churn-json", "", "churn: also write the comparison as JSON to this file")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection sweep: fabric closed-loop clients plus a seeded mid-run fault/repair schedule")
	chaosRates := flag.String("chaos-rates", "0,0.01,0.05,0.1", "chaos: comma-separated link failure rates p to sweep")
	chaosCycle := flag.Duration("chaos-cycle", 20*time.Millisecond, "chaos: fault/repair alternation period")
	grayMode := flag.Bool("gray", false, "run the gray-failure sweep: seeded flaky links flapping mid-run, with flap damping, retry budgets, and a degraded-plane federation point")
	grayRates := flag.String("gray-rates", "0,0.02,0.05,0.1", "gray: comma-separated flaky link selection rates p to sweep")
	grayDuty := flag.Float64("gray-duty", 0.5, "gray: per-step down probability of each flaky link")
	grayStep := flag.Duration("gray-step", 2*time.Millisecond, "gray: flaky process clock period")
	grayReuse := flag.Int("gray-reuse", 4, "gray: reuse-cost cap K for the second arm (0 skips it)")
	grayThreshold := flag.Float64("gray-threshold", 3, "gray: flap-damping quarantine threshold")
	grayProbation := flag.Duration("gray-probation", 100*time.Millisecond, "gray: quarantine probation window")
	grayBudget := flag.Float64("gray-budget", 200, "gray: repair retry budget tokens per second")
	grayBurst := flag.Int("gray-burst", 64, "gray: repair retry budget burst")
	grayJSON := flag.String("gray-json", "", "gray: also write the sweep results as JSON to this file")
	admitMode := flag.Bool("admit", false, "run the admission-pipeline sweep: admission latency p50/p95/p99 and allocs/op over epoch sizes × client counts")
	admitEpochs := flag.String("admit-epochs", "1,8,64", "admit sweep: comma-separated epoch flush thresholds")
	admitClients := flag.String("admit-clients", "1,16,64", "admit sweep: comma-separated closed-loop client counts")
	admitJSON := flag.String("admit-json", "", "admit sweep: also write the results as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls; route every exit through this so the
	// CPU profile is flushed and the heap profile written.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *planesFlag != "" || *planesConfig != "" {
		fcfg := fedBenchConfig{
			fabricBenchConfig: fabricBenchConfig{
				Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
				Clients: *fabricClients, Batch: *fabricBatch, Open: *fabricOpen,
				MaxWait: *fabricMaxWait, Duration: *fabricDuration, Seed: *seed,
				Timeout: *fabricTimeout, Scheduler: *fabricSched,
			},
			ConfigPath: *planesConfig,
			JSONPath:   *planesJSON,
			Policies:   splitList(*planePolicies),
		}
		if *planesFlag != "" {
			if fcfg.PlaneCounts, err = parsePlaneCounts(*planesFlag); err == nil {
				err = federationBench(os.Stdout, fcfg)
			}
		} else {
			err = federationBench(os.Stdout, fcfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *churnMode {
		err := churnBench(os.Stdout, churnBenchConfig{
			Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
			Rate: *churnRate, Life: *churnLife, Epochs: *churnEpochs,
			Reuse: *churnReuse, Seed: *seed, JSONPath: *churnJSON,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *grayMode {
		var rates []float64
		if rates, err = parseRates(*grayRates); err == nil {
			err = grayBench(os.Stdout, grayBenchConfig{
				fabricBenchConfig: fabricBenchConfig{
					Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
					Clients: *fabricClients, Batch: *fabricBatch, Open: *fabricOpen,
					MaxWait: *fabricMaxWait, Duration: *fabricDuration, Seed: *seed,
					Timeout: *fabricTimeout,
				},
				Rates: rates, Duty: *grayDuty, Step: *grayStep, Reuse: *grayReuse,
				FlapThreshold: *grayThreshold, Probation: *grayProbation,
				BudgetRate: *grayBudget, BudgetBurst: *grayBurst,
				JSONPath: *grayJSON,
			})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *admitMode {
		var epochs, clients []int
		if epochs, err = parseIntList(*admitEpochs); err == nil {
			if clients, err = parseIntList(*admitClients); err == nil {
				err = admitBench(os.Stdout, admitBenchConfig{
					Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
					EpochSizes: epochs, ClientCounts: clients,
					Open: *fabricOpen, MaxWait: *fabricMaxWait,
					Duration: *fabricDuration, Timeout: *fabricTimeout,
					Seed: *seed, JSONPath: *admitJSON,
				})
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *fabricMode || *chaosMode {
		cfg := fabricBenchConfig{
			Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
			Clients: *fabricClients, Batch: *fabricBatch, Open: *fabricOpen,
			MaxWait: *fabricMaxWait, Duration: *fabricDuration, Seed: *seed,
			Timeout:   *fabricTimeout,
			Scheduler: *fabricSched,
		}
		if *chaosMode {
			var rates []float64
			if rates, err = parseRates(*chaosRates); err == nil {
				err = chaosBench(os.Stdout, chaosBenchConfig{
					fabricBenchConfig: cfg, Rates: rates, Cycle: *chaosCycle,
				})
			}
		} else {
			err = fabricBench(os.Stdout, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *csvDir != "" {
		if err := writeFiles(*csvDir, ".csv", *perms, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}
	if *jsonDir != "" {
		if err := writeFiles(*jsonDir, ".json", *perms, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}

	violations, err := experiments.RunSuite(os.Stdout, experiments.SuiteConfig{
		Permutations:   *perms,
		Seed:           *seed,
		SkipExtensions: *paperOnly,
		Workers:        *workers,
		Only:           *only,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		exit(1)
	}
	if len(violations) > 0 {
		exit(2)
	}
	exit(0)
}

// startProfiles enables the requested pprof outputs and returns a stop
// function that finishes the CPU profile and writes the heap profile;
// every exit path must call it so the profiles are complete on disk.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: memprofile: %v\n", err)
		}
	}, nil
}

// writeFiles exports the core evaluation tables in the given format
// (".csv" or ".json").
func writeFiles(dir, ext string, perms int, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, tb *report.Table) error {
		f, err := os.Create(filepath.Join(dir, name+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		if ext == ".json" {
			return tb.WriteJSON(f)
		}
		return tb.WriteCSV(f)
	}
	a, err := experiments.Fig9a(perms, seed)
	if err != nil {
		return err
	}
	b, err := experiments.Fig9b(perms, seed)
	if err != nil {
		return err
	}
	c, err := experiments.Fig9c(perms, seed)
	if err != nil {
		return err
	}
	if err := write("fig9a", a.Table()); err != nil {
		return err
	}
	if err := write("fig9b", b.Table()); err != nil {
		return err
	}
	if err := write("fig9c", c.Table()); err != nil {
		return err
	}
	if err := write("fig9d", experiments.Fig9dTable(experiments.Fig9d(a, b, c))); err != nil {
		return err
	}
	t1, err := experiments.Table1(seed)
	if err != nil {
		return err
	}
	return write("table1", experiments.Table1Table(t1))
}
