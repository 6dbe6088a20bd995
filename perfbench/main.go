// Command perfbench is the repository's benchmark. One run drives one
// seeded workload through the stack (topology, linkstate, core through
// the sched registry, fabric, federation and the ftserve daemon) for a
// fixed time, checks the outputs, and prints one JSON result line last.
// README.md explains the workloads and what each metric should move.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload fabric-dense --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// prints the per-layer metrics: it records spans around the benchmark's
// own calls into each layer, times lower layers by replaying the same
// seeded stream one layer down, and writes the spans to
// .bench_build/perfbench/trace-<workload>.jsonl.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runLimit bounds a whole run, daemon included, below the 180 s a run
// of the benchmark may take.
const runLimit = 170 * time.Second

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	name, unit string
}

// endToEnd are the --trace 0 metrics and perLayer the --trace 1 ones;
// every workload prints all of its mode's metrics (README.md defines
// each on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sched_req_per_s", "1/s"},
	{"schedulability", "ratio"},
	{"admit_per_s", "1/s"},
	{"admit_p50_us", "us"},
	{"admit_p90_us", "us"},
	{"heap_mb", "MB"},
}

var perLayer = []metricSpec{
	{"topology.build_ms", "ms"},
	{"topology.cursor_walk_ns", "ns"},
	{"linkstate.avail_alloc_ns", "ns"},
	{"linkstate.reset_us", "us"},
	{"linkstate.heap_mb", "MB"},
	{"core.schedule_ns_per_req", "ns"},
	{"core.allocs_per_req", "count"},
	{"core.ops_per_req", "count"},
	{"core.epoch32_us", "us"},
	{"fabric.connect_p50_us", "us"},
	{"fabric.connect_p90_us", "us"},
	{"fabric.release_ns", "ns"},
	{"fabric.allocs_per_trip", "count"},
	{"fabric.epoch_size_mean", "count"},
	{"fabric.stats_us", "us"},
	{"fabric.overflow", "count"},
	{"fabric.cancelled", "count"},
	{"federation.self_ns", "ns"},
	{"federation.failovers", "count"},
	{"ftserve.connect_self_us", "us"},
	{"ftserve.release_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: its settings and everything it measured.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	ftserve  string // daemon binary, for http-sparse and traced runs
	outDir   string

	metrics   map[string]metric
	diag      map[string]any // printed in the record line, never compared
	failures  []string       // failed output checks
	attempted int64
	failed    int64
}

// put records a metric unless an earlier phase of the run already did:
// in a traced run the workload's own phases come first, and the ladder
// rungs after them only fill in the layers the workload does not reach.
func (b *bench) put(name string, v float64, unit string) {
	if _, ok := b.metrics[name]; !ok {
		b.metrics[name] = metric{Value: v, Unit: unit}
	}
}

func (b *bench) has(names ...string) bool {
	for _, n := range names {
		if _, ok := b.metrics[n]; !ok {
			return false
		}
	}
	return true
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.failures = append(b.failures, what+": "+err.Error())
	}
}

func (b *bench) note(key string, v any) { b.diag[key] = v }

// count adds one phase's operations to the run's totals.
func (b *bench) count(attempted, failed int64) {
	b.attempted += attempted
	b.failed += failed
}

// result assembles the output line. Every metric the mode promises
// must be present and finite; a missing one is a failed check.
func (b *bench) result() result {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	out := map[string]metric{}
	for _, s := range want {
		m, ok := b.metrics[s.name]
		switch {
		case !ok:
			b.check("metrics", fmt.Errorf("%s was not measured", s.name))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			b.check("metrics", fmt.Errorf("%s is %v", s.name, m.Value))
		case m.Unit != s.unit:
			b.check("metrics", fmt.Errorf("%s has unit %s, want %s", s.name, m.Unit, s.unit))
		default:
			out[s.name] = m
		}
	}
	return result{Correct: len(b.failures) == 0 && b.attempted > 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: out}
}

var workloads = map[string]func(*bench) error{
	"paper-batch":  runPaper,
	"fabric-dense": runDense,
	"http-sparse":  runHTTP,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "paper-batch, fabric-dense or http-sparse")
	seed := fl.Int64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 10, "measured time of the run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	ftserve := fl.String("ftserve", "", "ftserve binary built from this tree")
	outDir := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-batch|fabric-dense|http-sparse), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	b := &bench{ctx: ctx, workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, ftserve: *ftserve, outDir: *outDir,
		metrics: map[string]metric{}, diag: map[string]any{}}
	steal0, t0 := cpuSteal(), time.Now()
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if steal1 := cpuSteal(); steal0 >= 0 && steal1 >= steal0 {
		// /proc/stat counts in USER_HZ ticks, 100 per second per CPU.
		b.note("cpu_steal_pct", float64(steal1-steal0)/(time.Since(t0).Seconds()*100*float64(runtime.NumCPU()))*100)
	}
	res := b.result()
	if b.attempted > 0 {
		b.note("error_ratio", float64(b.failed)/float64(b.attempted))
	}
	rec := map[string]any{"workload": b.workload, "seed": b.seed, "seconds": *seconds, "trace": *trace,
		"env": environment(), "diagnostics": b.diag, "failed_checks": b.failures}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// environment records what a result was measured on and with.
func environment() map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"commit":        commit,
		"commit_dirty":  modified,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
	}
}

// sourceDigest hashes the module's Go sources, so a result from a
// checkout without git history still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuSteal is the time the host ran something else while this
// machine's CPUs wanted to run, from /proc/stat (-1 when unavailable).
// The record carries it, as a measure of how noisy the host was.
func cpuSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rungFunc measures some per-layer metrics within budget and returns
// the untraced rate of its main phase.
type rungFunc func(b *bench, budget time.Duration) (float64, error)

// ladder lists every per-layer metric with the rung that measures it
// on the workload README.md names for it.
var ladder = []struct {
	names []string
	run   rungFunc
}{
	{[]string{"topology.build_ms", "topology.cursor_walk_ns", "linkstate.avail_alloc_ns", "linkstate.reset_us",
		"linkstate.heap_mb", "core.schedule_ns_per_req", "core.allocs_per_req", "core.ops_per_req"}, paperRung},
	{[]string{"core.epoch32_us"}, epochRung},
	{[]string{"fabric.connect_p50_us", "fabric.connect_p90_us", "fabric.release_ns", "fabric.allocs_per_trip",
		"fabric.epoch_size_mean", "fabric.stats_us", "fabric.overflow", "fabric.cancelled",
		"federation.self_ns", "federation.failovers"}, denseRung},
	{[]string{"ftserve.connect_self_us", "ftserve.release_us"}, httpRung},
}

// tracedRun is a --trace 1 run. The workload's own rung runs first,
// untraced, over half the time; then its traced phase over a quarter,
// whose rate against the untraced one is the tracing overhead; then the
// rest of the ladder shares the last quarter, for the layers the
// workload does not reach.
func (b *bench) tracedRun(own rungFunc, traced func(time.Duration) (float64, []*recorder, error)) error {
	base, err := own(b, b.dur/2)
	if err != nil {
		return err
	}
	rate, recs, err := traced(b.dur / 4)
	if err != nil {
		return err
	}
	b.put("bench.trace_overhead_pct", (base-rate)/base*100, "%")
	b.note("traced_rate", map[string]float64{"untraced": base, "traced": rate})
	path := filepath.Join(b.outDir, "trace-"+b.workload+".jsonl")
	selfMS, err := writeSpans(path, recs)
	if err != nil {
		return err
	}
	b.note("span_file", path)
	b.note("span_self_ms", selfMS)

	var todo []rungFunc
	for _, r := range ladder {
		if !b.has(r.names...) {
			todo = append(todo, r.run)
		}
	}
	for _, run := range todo {
		if _, err := run(b, b.dur/4/time.Duration(len(todo))); err != nil {
			return err
		}
	}
	return nil
}
