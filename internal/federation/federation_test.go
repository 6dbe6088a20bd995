package federation

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// testRouter builds an n-plane router of small identical planes with
// BatchSize 1 and the given policy tweaks applied.
func testRouter(t *testing.T, n int, mod func(*Config)) *Router {
	t.Helper()
	cfg := Config{}
	for i := 0; i < n; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1), BatchSize: 1},
		})
	}
	if mod != nil {
		mod(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoPlanes) {
		t.Errorf("empty config: %v, want ErrNoPlanes", err)
	}
	if _, err := New(Config{Planes: []PlaneConfig{
		{Name: "a", Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
		{Name: "a", Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
	}}); err == nil {
		t.Error("duplicate plane names accepted")
	}
	if _, err := New(Config{Planes: []PlaneConfig{
		{Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
		{Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 1)}},
	}}); err == nil {
		t.Error("mismatched node counts accepted")
	}
	if _, err := New(Config{Planes: []PlaneConfig{{}}}); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	r := testRouter(t, 2, nil)
	if _, err := r.Connect(context.Background(), 0, 99); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if got := r.Nodes(); got != 4 {
		t.Errorf("Nodes() = %d, want 4", got)
	}
	if got := r.PlaneCount(); got != 2 {
		t.Errorf("PlaneCount() = %d, want 2", got)
	}
	if _, ok := r.Plane("plane1"); !ok {
		t.Error("Plane(plane1) not found")
	}
	if _, ok := r.Plane("nope"); ok {
		t.Error("Plane(nope) found")
	}
	r.Close(context.Background())
	if _, err := r.Connect(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after Close: %v, want ErrClosed", err)
	}
}

// TestPolicyOrdering pins each policy's candidate ordering against a
// 4-plane router.
func TestPolicyOrdering(t *testing.T) {
	r := testRouter(t, 4, nil)

	// Hash: deterministic per (src, dst), preserves ring order.
	a := r.candidates(0, 3)
	b := r.candidates(0, 3)
	if len(a) != 4 {
		t.Fatalf("candidates = %v, want 4 planes", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hash ordering not deterministic: %v vs %v", a, b)
		}
	}
	for i := 1; i < 4; i++ {
		if a[i] != (a[i-1]+1)%4 {
			t.Fatalf("hash order %v is not a ring rotation", a)
		}
	}

	// Round-robin: consecutive admissions rotate the starting plane.
	r.cfg.Policy = PolicyRoundRobin
	starts := make(map[int]bool)
	for i := 0; i < 4; i++ {
		starts[r.candidates(0, 3)[0]] = true
	}
	if len(starts) != 4 {
		t.Errorf("round-robin visited %d distinct starting planes in 4 admissions, want 4", len(starts))
	}

	// Random: stays a permutation.
	r.cfg.Policy = PolicyRandom
	seen := make(map[int]bool)
	for _, pi := range r.candidates(1, 2) {
		seen[pi] = true
	}
	if len(seen) != 4 {
		t.Errorf("random ordering lost planes: %v", seen)
	}

	// Least-loaded: the emptiest plane leads. Load planes 0..2 with one
	// circuit each, leave plane 3 idle.
	r.cfg.Policy = PolicyLeastLoaded
	for i := 0; i < 3; i++ {
		s, _ := r.Plane(r.PlaneNames()[i])
		if _, err := s.Admit(context.Background(), 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.candidates(0, 3); got[0] != 3 {
		t.Errorf("least-loaded candidates %v, want plane 3 first", got)
	}
}

// TestFailoverToNextPlane occupies the only route on the first-choice
// plane and proves the admission lands on the next candidate, counted
// as a failover.
func TestFailoverToNextPlane(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) { c.Policy = PolicyRoundRobin })
	// FT(2,2,1): (0,2) has exactly one route. Occupy it on plane 0.
	p0, _ := r.Plane("plane0")
	blocker, err := p0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Release()
	// First round-robin admission starts at plane 0, which must deny.
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Plane(); got != "plane1" {
		t.Errorf("granted on %q, want plane1", got)
	}
	s := r.Stats()
	if s.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", s.Failovers)
	}
	if s.Granted != 1 || s.Rejected != 0 {
		t.Errorf("granted/rejected = %d/%d, want 1/0", s.Granted, s.Rejected)
	}
	if s.Planes[1].Grants != 1 || s.Planes[0].Grants != 0 {
		t.Errorf("per-plane grants = %d/%d, want 0/1", s.Planes[0].Grants, s.Planes[1].Grants)
	}
}

// TestFailoverLimitBounds proves FailoverLimit caps the planes tried.
func TestFailoverLimitBounds(t *testing.T) {
	r := testRouter(t, 3, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.FailoverLimit = 1
	})
	// Occupy (0,2)'s only route on planes 0 and 1; plane 2 stays free
	// but is out of reach with FailoverLimit 1.
	for _, name := range []string{"plane0", "plane1"} {
		s, _ := r.Plane(name)
		h, err := s.Admit(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
	}
	if _, err := r.Connect(context.Background(), 0, 2); !errors.Is(err, fabric.ErrUnroutable) {
		t.Fatalf("limited failover: %v, want unroutable denial", err)
	}
	if s := r.Stats(); s.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Rejected)
	}
}

// TestEjectAndRepair proves a killed plane stops receiving traffic and
// a repaired plane rejoins.
func TestEjectAndRepair(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.ProbeInterval = time.Hour // no probes: ejection must hold
	})
	if err := r.KillPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Planes[0].Healthy {
		t.Error("killed plane still healthy")
	}
	for i := 0; i < 4; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Plane(); got != "plane1" {
			t.Errorf("admission %d landed on ejected %q", i, got)
		}
		h.Release()
	}
	if err := r.RepairPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); !s.Planes[0].Healthy {
		t.Error("repaired plane still ejected")
	}
	planes := make(map[string]bool)
	for i := 0; i < 4; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		planes[h.Plane()] = true
		h.Release()
	}
	if !planes["plane0"] {
		t.Errorf("repaired plane got no traffic: %v", planes)
	}
	if err := r.KillPlane("nope"); err == nil {
		t.Error("KillPlane(nope) succeeded")
	}
	if err := r.RepairPlane("nope"); err == nil {
		t.Error("RepairPlane(nope) succeeded")
	}
}

// TestEjectionStreakAndProbe drives the organic health path: repeated
// denials eject a plane without KillPlane, and a due probe routes one
// admission back, whose success re-admits the plane.
func TestEjectionStreakAndProbe(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.EjectAfter = 2
		c.ProbeInterval = time.Hour
	})
	// Saturate (0,2)'s only route on plane 0 so it denies organically.
	p0, _ := r.Plane("plane0")
	blocker, err := p0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two round-robin admissions starting at plane 0 (rr starts at 0 and
	// alternates, so issue four to land two on plane 0).
	for i := 0; i < 4; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if s := r.Stats(); s.Planes[0].Healthy {
		t.Fatal("plane 0 not ejected after denial streak")
	}

	// Unblock plane 0 and make plane 1 deny, so only a probe can succeed.
	blocker.Release()
	p1, _ := r.Plane("plane1")
	blocker1, err := p1.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker1.Release()
	// Probes are still gated by the 1h interval: the admission must fail.
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with the only healthy plane saturated and probes gated")
	}
	// Open the probe gate: the next admission probes plane 0, succeeds,
	// and re-admits it.
	r.cfg.ProbeInterval = time.Nanosecond
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Plane(); got != "plane0" {
		t.Errorf("probe admission landed on %q, want plane0", got)
	}
	if s := r.Stats(); !s.Planes[0].Healthy {
		t.Error("plane 0 still ejected after a successful probe")
	}
}

// TestReadmitAcrossPlanes kills a plane under held connections and
// proves each one migrates to the survivor behind its original handle.
func TestReadmitAcrossPlanes(t *testing.T) {
	cfg := Config{Policy: PolicyRoundRobin}
	for i := 0; i < 2; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{
				Tree:          topology.MustNew(2, 4, 4),
				BatchSize:     1,
				RepairRetries: 2,
				RepairBackoff: time.Millisecond,
			},
		})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())

	// Hold circuits that all cross the top (distinct level-0 switches),
	// so killing the plane revokes every one it carries — spread so the
	// survivor has the capacity to absorb them all.
	var held []*Handle
	for i := 0; i < 8; i++ {
		h, err := r.Connect(context.Background(), i, 8+i)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	onPlane0 := 0
	for _, h := range held {
		if h.Plane() == "plane0" {
			onPlane0++
		}
	}
	if onPlane0 == 0 {
		t.Fatal("round-robin placed nothing on plane 0")
	}
	if err := r.KillPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := r.Stats()
		if s.PendingReadmits == 0 && s.Readmitted+s.Lost >= uint64(onPlane0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration stalled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	s := r.Stats()
	if s.Lost != 0 {
		t.Fatalf("lost %d connections with a healthy survivor", s.Lost)
	}
	if s.Readmitted != uint64(onPlane0) {
		t.Errorf("Readmitted = %d, want %d", s.Readmitted, onPlane0)
	}
	for i, h := range held {
		if got := h.Plane(); got != "plane1" {
			t.Errorf("handle %d on %q after plane kill, want plane1", i, got)
		}
		if err := h.Err(); err != nil {
			t.Errorf("handle %d dead: %v", i, err)
		}
		if err := h.Release(); err != nil {
			t.Errorf("handle %d release: %v", i, err)
		}
		if err := h.Release(); !errors.Is(err, ErrReleased) {
			t.Errorf("handle %d double release: %v, want ErrReleased", i, err)
		}
	}
	s = r.Stats()
	for _, ps := range s.Planes {
		if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
			t.Errorf("plane %s not drained: active %d, occupancy %d", ps.Name, ps.Fabric.Active, ps.Occupancy)
		}
	}
}

// TestLostConnection kills the only plane that can carry a circuit and
// proves the handle terminates with the documented error.
func TestLostConnection(t *testing.T) {
	cfg := Config{}
	cfg.Planes = append(cfg.Planes, PlaneConfig{
		Fabric: fabric.Config{
			Tree:          topology.MustNew(2, 4, 4),
			BatchSize:     1,
			RepairRetries: 1,
			RepairBackoff: time.Millisecond,
		},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	h, err := r.Connect(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.KillPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	// Err may first report the plane's own terminal verdict: the plane
	// retires the circuit before the router's migration hook runs (see
	// Handle.Err). The router's verdict must follow.
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(h.Err(), ErrConnLost) {
		if time.Now().After(deadline) {
			t.Fatalf("Err() = %v, never ErrConnLost", h.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Release(); !errors.Is(err, ErrConnLost) {
		t.Errorf("Release = %v, want ErrConnLost", err)
	}
	if s := r.Stats(); s.Lost != 1 {
		t.Errorf("Lost = %d, want 1", s.Lost)
	}
}

// TestStatsImbalance pins the max/min grant ratio definition.
func TestStatsImbalance(t *testing.T) {
	r := testRouter(t, 2, nil)
	if got := r.Stats().Imbalance; got != 0 {
		t.Errorf("idle imbalance = %v, want 0 (undefined)", got)
	}
	r.planes[0].grants.Store(6)
	r.planes[1].grants.Store(2)
	if got := r.Stats().Imbalance; got != 3 {
		t.Errorf("imbalance = %v, want 3", got)
	}
}
