package federation

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestConfigRoundTrip pins the gen → write → load → build pipeline the
// fttopo gen | ftserve -config smoke exercises.
func TestConfigRoundTrip(t *testing.T) {
	fc := Generate(3, 2, 4, 2, "backtrack,depth=2", "least-loaded")
	fc.FailoverLimit = 2
	fc.EjectAfter = 5
	fc.ProbeInterval = "75ms"
	fc.Planes[1].BatchSize = 4
	fc.Planes[1].MaxWait = "1ms"
	fc.Planes[2].AdmitTimeout = "250ms"

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Planes) != 3 || got.Policy != "least-loaded" || got.Planes[1].MaxWait != "1ms" {
		t.Fatalf("round trip mangled the config: %+v", got)
	}

	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != PolicyLeastLoaded || cfg.FailoverLimit != 2 || cfg.EjectAfter != 5 {
		t.Errorf("built router knobs: %+v", cfg)
	}
	if cfg.ProbeInterval != 75*time.Millisecond {
		t.Errorf("ProbeInterval = %v, want 75ms", cfg.ProbeInterval)
	}
	if cfg.Planes[1].Fabric.MaxWait != time.Millisecond || cfg.Planes[1].Fabric.BatchSize != 4 {
		t.Errorf("plane 1 fabric knobs: %+v", cfg.Planes[1].Fabric)
	}
	if cfg.Planes[0].Fabric.Tree.Nodes() != 16 {
		t.Errorf("plane 0 nodes = %d, want 16", cfg.Planes[0].Fabric.Tree.Nodes())
	}
	// Planes must not share a tree: independent fabrics, same shape.
	if cfg.Planes[0].Fabric.Tree == cfg.Planes[1].Fabric.Tree {
		t.Error("planes share one *topology.Tree")
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	h, err := r.Connect(context.Background(), 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigWeightRoundTrip: per-plane weight and a parallel-engine
// scheduler spec survive gen → write → load → build and land on the
// runtime PlaneConfig / fabric.Config.
func TestConfigWeightRoundTrip(t *testing.T) {
	const parSpec = "parallel,mode=shard,workers=2,steal"
	fc := Generate(2, 2, 4, 2, "", "hash")
	fc.Planes[0].Weight = 3
	fc.Planes[1].Scheduler = parSpec

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes[0].Weight != 3 || got.Planes[1].Weight != 0 {
		t.Fatalf("weights mangled: %+v", got.Planes)
	}
	if got.Planes[1].Scheduler != parSpec {
		t.Fatalf("parallel spec mangled: %+v", got.Planes[1])
	}

	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Planes[0].Weight != 3 || cfg.Planes[1].Weight != 0 {
		t.Errorf("built weights: %v, %v", cfg.Planes[0].Weight, cfg.Planes[1].Weight)
	}
	if f := cfg.Planes[1].Fabric; f.SchedulerSpec != parSpec {
		t.Errorf("built fabric scheduler spec: %q", f.SchedulerSpec)
	}

	// The built config constructs a live router whose runtime weights
	// reflect the spec (omitted weight defaults to 1 → weighted router).
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	if r.planes[0].weight != 3 || r.planes[1].weight != 1 || !r.weighted {
		t.Errorf("runtime weights: %v, %v (weighted=%v)",
			r.planes[0].weight, r.planes[1].weight, r.weighted)
	}
}

// TestConfigIncrementalRoundTrip: delta-epoch scheduler specs survive
// write → load → build, land on fabric.Config, and construct live
// incremental planes.
func TestConfigIncrementalRoundTrip(t *testing.T) {
	const reuseSpec = "level-wise,rollback,incremental,reuse-cost=4"
	fc := Generate(2, 2, 4, 2, "", "hash")
	fc.Planes[0].Scheduler = reuseSpec
	fc.Planes[1].Scheduler = "levelwise,incremental"

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes[0].Scheduler != reuseSpec {
		t.Fatalf("incremental spec mangled: %+v", got.Planes[0])
	}
	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f := cfg.Planes[0].Fabric; f.SchedulerSpec != reuseSpec {
		t.Fatalf("built fabric scheduler spec: %q", f.SchedulerSpec)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	h, err := r.Connect(context.Background(), 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	for i, p := range r.planes {
		if s := p.surf.Stats(); !s.Incremental {
			t.Errorf("plane %d not incremental: %+v", i, s)
		}
	}
	if s := r.planes[0].surf.Stats(); s.ReuseCost != 4 {
		t.Errorf("plane 0 reuse-cost = %d, want 4", s.ReuseCost)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"bad policy", `{"policy":"fastest","planes":[{"levels":2,"arity":2,"width":1}]}`, "unknown policy"},
		{"no planes", `{"planes":[]}`, "no planes"},
		{"bad shape", `{"planes":[{"levels":0,"arity":2,"width":1}]}`, "plane 0"},
		{"bad scheduler", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"warp-drive"}]}`, "warp-drive"},
		{"bad duration", `{"planes":[{"levels":2,"arity":2,"width":1,"max_wait":"fast"}]}`, "max_wait"},
		{"node mismatch", `{"planes":[{"levels":2,"arity":2,"width":1},{"name":"b","levels":2,"arity":4,"width":1}]}`, "b serves"},
		{"unknown field", `{"plains":[]}`, "unknown field"},
		{"negative weight", `{"planes":[{"levels":2,"arity":2,"width":1,"weight":-1}]}`, "negative weight"},
		// Engine choice lives in the scheduler spec alone, so a bad
		// parallel or delta-epoch request fails through sched.Parse.
		{"bad parallel mode", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,mode=sharded"}]}`, "invalid mode"},
		{"racy mode", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,mode=racy"}]}`, `invalid mode="racy" (deterministic or shard)`},
		{"steal without shard", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,mode=deterministic,steal"}]}`, "steal requires mode=shard"},
		{"negative reuse_cost", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,incremental,reuse-cost=-2"}]}`, "invalid reuse-cost"},
		{"reuse_cost without incremental", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,reuse-cost=2"}]}`, "requires the incremental flag"},
		{"incremental without capability", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"optimal,incremental"}]}`, "unknown parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("config accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := LoadFile("/does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
	var empty FileConfig
	if err := empty.Validate(); !errors.Is(err, ErrNoPlanes) {
		t.Errorf("empty config: %v, want ErrNoPlanes", err)
	}
}

// TestLoadRejectsHugeWidthFast: a two-node-level plane whose width
// would make its link tables take gigabytes is refused by Load before
// anything is allocated, naming the shape.
func TestLoadRejectsHugeWidthFast(t *testing.T) {
	start := time.Now()
	_, err := Load(strings.NewReader(`{"planes":[{"levels":2,"arity":2,"width":100000000}]}`))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Load took %s, want < 100ms", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "FT(2,2,100000000) has more than") {
		t.Fatalf("Load error = %v, want the link limit naming FT(2,2,100000000)", err)
	}
}

// TestConfigRemovedKeysFailLoudly: a config file written for a build
// that still had the per-plane engine and pipeline knobs must fail to
// load with an error naming the key — never load and silently run
// different machinery than the file asks for.
func TestConfigRemovedKeysFailLoudly(t *testing.T) {
	for _, kv := range []string{
		`"drain_worker": true`,
		`"parallel_threshold": 8`,
		`"parallel_workers": 4`,
		`"parallel_racy": true`,
		`"parallel_mode": "shard"`,
		`"parallel_steal": true`,
		`"incremental": true`,
		`"reuse_cost": 4`,
		`"release_ring": 64`,
		`"delivery_pipeline": 2`,
		`"stats_snapshots": true`,
	} {
		key, _, _ := strings.Cut(kv, ":")
		js := `{"planes":[{"levels":2,"arity":2,"width":1,` + kv + `}]}`
		_, err := Load(strings.NewReader(js))
		if err == nil {
			t.Errorf("config with removed key %s loaded", key)
			continue
		}
		if !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), key) {
			t.Errorf("removed key %s: error %q does not name it as an unknown field", key, err)
		}
	}
}

func TestParsePolicyGrammar(t *testing.T) {
	for _, name := range Policies() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParsePolicy(%q).String() = %q", name, p.String())
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyHash {
		t.Errorf("empty policy = %v, %v; want hash", p, err)
	}
	for alias, want := range map[string]Policy{"rr": PolicyRoundRobin, "rand": PolicyRandom, "ll": PolicyLeastLoaded, "least": PolicyLeastLoaded} {
		if p, err := ParsePolicy(alias); err != nil || p != want {
			t.Errorf("alias %q = %v, %v; want %v", alias, p, err, want)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil {
		t.Error("ParsePolicy(fastest) succeeded")
	}
}
