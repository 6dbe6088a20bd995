package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/federation"
)

func TestWriteFilesCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	if err := writeFiles(dir, ".csv", 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeFiles(dir, ".json", 3, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9a.csv", "fig9b.csv", "fig9c.csv", "fig9d.csv", "table1.csv",
		"fig9a.json", "table1.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
		if strings.HasSuffix(name, ".json") && !strings.Contains(string(data), `"rows"`) {
			t.Fatalf("%s not JSON: %.60s", name, data)
		}
	}
}

func TestWriteFilesBadDir(t *testing.T) {
	if err := writeFiles("/dev/null/subdir", ".csv", 1, 1); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

func TestFabricBench(t *testing.T) {
	var out strings.Builder
	err := fabricBench(&out, fabricBenchConfig{
		Levels: 3, Children: 4, Parents: 4,
		Clients: 8, Batch: 8, Open: 2,
		MaxWait: 200 * time.Microsecond, Duration: 100 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "admissions/sec") {
		t.Errorf("summary missing admissions/sec:\n%s", out.String())
	}
}

func TestFabricBenchParallel(t *testing.T) {
	var out strings.Builder
	err := fabricBench(&out, fabricBenchConfig{
		Levels: 3, Children: 4, Parents: 4,
		Clients: 16, Batch: 16, Open: 2,
		MaxWait: 200 * time.Microsecond, Duration: 100 * time.Millisecond, Seed: 1,
		Scheduler: "parallel,mode=shard,workers=4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "engine parallel-level-wise/shard/w4") {
		t.Errorf("summary missing engine line:\n%s", out.String())
	}
}

func TestFabricBenchTimeoutFailsWedgedRun(t *testing.T) {
	// A huge batch threshold with a long flush timer wedges admission:
	// the lone request sits in the epoch queue past its AdmitTimeout.
	// The run must fail with ErrAdmitTimeout instead of hanging.
	var out strings.Builder
	err := fabricBench(&out, fabricBenchConfig{
		Levels: 2, Children: 4, Parents: 4,
		Clients: 1, Batch: 1 << 20, Open: 1,
		MaxWait: time.Hour, Duration: 200 * time.Millisecond, Seed: 1,
		Timeout: 5 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("wedged run reported success")
	}
	if !errors.Is(err, fabric.ErrAdmitTimeout) {
		t.Fatalf("err = %v, want ErrAdmitTimeout", err)
	}
}

func TestChaosBench(t *testing.T) {
	var out strings.Builder
	err := chaosBench(&out, chaosBenchConfig{
		fabricBenchConfig: fabricBenchConfig{
			Levels: 3, Children: 4, Parents: 2,
			Clients: 8, Batch: 4, Open: 2,
			MaxWait: 200 * time.Microsecond, Duration: 120 * time.Millisecond, Seed: 1,
		},
		Rates: []float64{0, 0.08},
		Cycle: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"chaos FT(3,4,2)", "rate", "sched", "0.000", "0.080"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos summary missing %q:\n%s", want, got)
		}
	}
}

// TestFederationBenchSweep runs a short 1-vs-2-plane sweep end to end,
// checking the per-plane grant report, the imbalance ratio, and the
// JSON dump.
func TestFederationBenchSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	err := federationBench(&out, fedBenchConfig{
		fabricBenchConfig: fabricBenchConfig{
			Levels: 3, Children: 4, Parents: 4,
			Clients: 8, Batch: 8, Open: 2,
			MaxWait: 200 * time.Microsecond, Duration: 100 * time.Millisecond, Seed: 1,
		},
		PlaneCounts: []int{1, 2},
		Policies:    []string{"round-robin", "least-loaded"},
		JSONPath:    jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"planes=1", "planes=2", "policy=round-robin", "policy=least-loaded",
		"per-plane grants", "imbalance", "grants/sec"} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep summary missing %q:\n%s", want, got)
		}
	}
	var results []fedResult
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("JSON has %d points, want 4", len(results))
	}
	for _, res := range results {
		if res.Granted == 0 || len(res.PerPlane) != res.Planes {
			t.Errorf("sweep point %+v", res)
		}
	}
}

// TestFederationBenchFromConfig runs the single point an explicit
// config file describes — the `fttopo gen | ftbench -planes-config`
// pipeline.
func TestFederationBenchFromConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
	fc := federation.Generate(2, 2, 4, 4, "", "least-loaded")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	err = federationBench(&out, fedBenchConfig{
		fabricBenchConfig: fabricBenchConfig{
			Clients: 4, Batch: 1, Open: 1,
			MaxWait: 200 * time.Microsecond, Duration: 50 * time.Millisecond, Seed: 1,
		},
		ConfigPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "planes=2 policy=least-loaded") {
		t.Errorf("config-driven sweep summary:\n%s", out.String())
	}
}

func TestFederationBenchValidation(t *testing.T) {
	base := fabricBenchConfig{Levels: 2, Children: 4, Parents: 4,
		Clients: 1, Open: 1, Duration: time.Millisecond}
	if err := federationBench(os.Stdout, fedBenchConfig{fabricBenchConfig: base, PlaneCounts: []int{0}}); err == nil {
		t.Error("0-plane point accepted")
	}
	if err := federationBench(os.Stdout, fedBenchConfig{fabricBenchConfig: base, PlaneCounts: []int{1}, Policies: []string{"fastest"}}); err == nil {
		t.Error("bad policy accepted")
	}
	if err := federationBench(os.Stdout, fedBenchConfig{fabricBenchConfig: base, ConfigPath: "/does/not/exist.json"}); err == nil {
		t.Error("missing config accepted")
	}
	if err := federationBench(os.Stdout, fedBenchConfig{PlaneCounts: []int{1}}); err == nil {
		t.Error("zero clients accepted")
	}
}

func TestParsePlaneCounts(t *testing.T) {
	counts, err := parsePlaneCounts(" 1, 2,4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 2 || counts[2] != 4 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := parsePlaneCounts("1,x"); err == nil {
		t.Error("parsePlaneCounts(1,x) accepted")
	}
	if got := splitList(" a, ,b "); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("splitList = %v", got)
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates(" 0, 0.01,0.1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 3 || rates[0] != 0 || rates[1] != 0.01 || rates[2] != 0.1 {
		t.Fatalf("rates = %v", rates)
	}
	for _, bad := range []string{"", "x", "-0.1", "1.5", ","} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

func TestChaosBenchValidation(t *testing.T) {
	base := fabricBenchConfig{Levels: 2, Children: 4, Parents: 4,
		Clients: 1, Open: 1, Duration: time.Millisecond}
	if err := chaosBench(os.Stdout, chaosBenchConfig{fabricBenchConfig: base, Rates: nil, Cycle: time.Millisecond}); err == nil {
		t.Error("empty rates accepted")
	}
	if err := chaosBench(os.Stdout, chaosBenchConfig{fabricBenchConfig: base, Rates: []float64{0.1}}); err == nil {
		t.Error("zero cycle accepted")
	}
	if err := chaosBench(os.Stdout, chaosBenchConfig{Rates: []float64{0.1}, Cycle: time.Millisecond}); err == nil {
		t.Error("zero clients accepted")
	}
}

func TestFabricBenchValidation(t *testing.T) {
	if err := fabricBench(os.Stdout, fabricBenchConfig{Levels: 3, Children: 4, Parents: 4}); err == nil {
		t.Error("zero clients accepted")
	}
	if err := fabricBench(os.Stdout, fabricBenchConfig{Levels: 0, Clients: 1, Open: 1, Duration: time.Millisecond}); err == nil {
		t.Error("bad topology accepted")
	}
}
