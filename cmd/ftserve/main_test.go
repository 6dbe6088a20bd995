package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/topology"
)

// newTestRouter builds a federation of n identical planes the way
// buildConfig does from shape flags.
func newTestRouter(t *testing.T, planes, levels, children, batch int, policy federation.Policy) *federation.Router {
	t.Helper()
	cfg := federation.Config{Policy: policy}
	for i := 0; i < planes; i++ {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
			Fabric: fabric.Config{
				Tree:      topology.MustNew(levels, children, children),
				BatchSize: batch,
				MaxWait:   200 * time.Microsecond,
			},
		})
	}
	r, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestServer(t *testing.T, planes, levels, children, batch int) (*httptest.Server, *federation.Router) {
	t.Helper()
	router := newTestRouter(t, planes, levels, children, batch, federation.PolicyRoundRobin)
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})
	return ts, router
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestConnectReleaseStats(t *testing.T) {
	ts, _ := newTestServer(t, 1, 3, 4, 4)

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 33}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	if conn.ID == 0 || len(conn.Ports) == 0 || conn.Plane != "plane0" {
		t.Fatalf("connect response %+v", conn)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Open != 1 || st.Granted != 1 || st.Offered != 1 {
		t.Errorf("federated stats after connect: %+v", st.Stats)
	}
	if len(st.Planes) != 1 || st.Planes[0].Fabric.Active != 1 || st.Planes[0].Fabric.Utilization <= 0 {
		t.Errorf("plane stats after connect: %+v", st.Planes)
	}

	var rel releaseResponse
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, &rel); code != http.StatusOK || !rel.Released {
		t.Fatalf("release status %d resp %+v", code, rel)
	}
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusNotFound {
		t.Errorf("double release status %d, want 404", code)
	}
}

func TestConnectUnroutable(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 2, 1)

	// Saturate the two upward channels of level-0 switch 1 (nodes 2, 3).
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, nil); code != http.StatusOK {
			t.Fatalf("connect %d status %d", i, code)
		}
	}
	var er errorResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, &er); code != http.StatusConflict {
		t.Fatalf("saturated connect status %d, want 409", code)
	}
	if er.Error != "unroutable" || er.FailLevel == nil || *er.FailLevel != 0 {
		t.Errorf("unroutable body %+v", er)
	}
}

// TestConnectFailsOverPlanes saturates plane0 directly and checks the
// HTTP layer lands the admission on plane1, reporting which plane took
// it.
func TestConnectFailsOverPlanes(t *testing.T) {
	ts, router := newTestServer(t, 2, 2, 2, 1)

	// Round-robin starts on plane0; saturate node 2's uplinks there
	// out-of-band so the HTTP admission must fail over.
	surf, ok := router.Plane("plane0")
	if !ok {
		t.Fatal("plane0 missing")
	}
	for i := 0; i < 2; i++ {
		if _, err := surf.Admit(context.Background(), 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	if conn.Plane != "plane1" {
		t.Errorf("connect landed on %q, want plane1", conn.Plane)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Failovers == 0 {
		t.Errorf("no failover counted: %+v", st.Stats)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 4, 1)

	resp, err := http.Post(ts.URL+"/connect", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: -1, Dst: 2}, nil); code != http.StatusBadRequest {
		t.Errorf("bad endpoints status %d", code)
	}
	resp, err = http.Get(ts.URL + "/connect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /connect status %d", resp.StatusCode)
	}
}

// TestBodyLimits: an oversize POST body gets 413 and a truncated JSON
// body 400 on every POST endpoint — bad input never yields a 5xx — and
// the server keeps serving afterwards.
func TestBodyLimits(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 4, 1)
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// A well-formed object whose one string field runs past the limit:
	// the decoder must read beyond maxBodyBytes to finish it.
	oversize := []byte(`{"src":0,"dst":1,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`)
	for _, path := range []string{"/connect", "/release", "/fault"} {
		if code := post(path, oversize); code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s body: status %d, want 413", path, code)
		}
		if code := post(path, []byte(`{"src":0,"dst":`)); code != http.StatusBadRequest {
			t.Errorf("truncated %s body: status %d, want 400", path, code)
		}
	}
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 5}, nil); code != http.StatusOK {
		t.Errorf("connect after bad bodies: status %d", code)
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	ts, router := newTestServer(t, 2, 3, 8, 16)

	const clients = 32
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(id int) {
			for i := 0; i < 5; i++ {
				var conn connectResponse
				code := postJSON0(ts.URL+"/connect", connectRequest{Src: (id*7 + i) % 512, Dst: (id*13 + 3*i) % 512}, &conn)
				if code == http.StatusOK {
					if rc := postJSON0(ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); rc != http.StatusOK {
						errs <- fmt.Errorf("client %d: release status %d", id, rc)
						return
					}
				} else if code != http.StatusConflict {
					errs <- fmt.Errorf("client %d: connect status %d", id, code)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	s := router.Stats()
	if s.Offered != s.Granted+s.Rejected {
		t.Errorf("counter identity broken: %+v", s)
	}
	for _, ps := range s.Planes {
		if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
			t.Errorf("plane %s not drained after all releases: %+v", ps.Name, ps)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 4)
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Nodes != 16 || len(hz.Planes) != 2 {
		t.Errorf("healthz body %+v", hz)
	}
	for _, p := range hz.Planes {
		if !p.Healthy || p.FaultyChannels != 0 || p.PendingRepairs != 0 {
			t.Errorf("plane health %+v", p)
		}
	}
}

// TestHealthzDegradedOnPendingRepairs pins the shutdown-satellite
// contract: /healthz reports "degraded" while any plane holds
// outstanding repair tickets, even after its channels are healed. A
// width-1 tree gives the held circuit exactly one route, so the repair
// attempt deterministically fails while the fault stands, and an
// hour-long RepairBackoff parks the ticket where healthz can see it.
func TestHealthzDegradedOnPendingRepairs(t *testing.T) {
	cfg := federation.Config{}
	for i := 0; i < 2; i++ {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
			Fabric: fabric.Config{
				Tree:          topology.MustNew(2, 4, 1),
				BatchSize:     1,
				MaxWait:       200 * time.Microsecond,
				RepairBackoff: time.Hour,
				RepairRetries: 8,
			},
		})
	}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 15}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	// Fault the held circuit's only uplink, wait out the immediate
	// (doomed) repair attempt, then heal the channels: the parked
	// ticket is now the sole degradation signal. If the heal ever
	// outraces the first repair attempt the circuit re-admits cleanly
	// and the cycle simply repeats.
	fault := faultRequest{
		Plane:    conn.Plane,
		FaultSet: faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: conn.Ports[0]}}},
	}
	repair := faultRequest{Plane: conn.Plane, Repair: true, FaultSet: fault.FaultSet}
	var hz healthzResponse
	pending := false
	for try := 0; try < 20 && !pending; try++ {
		var fr faultResponse
		if code := postJSON(t, ts.URL+"/fault", fault, &fr); code != http.StatusOK || fr.Revoked != 1 {
			t.Fatalf("fault status %d resp %+v", code, fr)
		}
		time.Sleep(10 * time.Millisecond)
		if code := postJSON(t, ts.URL+"/fault", repair, &fr); code != http.StatusOK {
			t.Fatalf("repair status %d", code)
		}
		getJSON(t, ts.URL+"/healthz", &hz)
		for _, p := range hz.Planes {
			if p.FaultyChannels != 0 {
				t.Fatalf("plane %s still has %d faulty channels after heal", p.Plane, p.FaultyChannels)
			}
			if p.PendingRepairs > 0 {
				pending = true
			}
		}
	}
	if !pending {
		t.Fatal("never captured an outstanding repair ticket in 20 cycles")
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz %q with outstanding repair tickets, want degraded: %+v", hz.Status, hz)
	}
	// Releasing the owner retires the parked ticket; health recovers.
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusOK {
		t.Fatalf("release status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/healthz", &hz)
		if hz.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stuck degraded after release: %+v", hz)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPprofGated(t *testing.T) {
	router := newTestRouter(t, 1, 2, 2, fabric.DefaultBatchSize, federation.PolicyHash)
	defer router.Close(context.Background())

	off := httptest.NewServer(newServer(router).routes())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	sv := newServer(router)
	sv.enablePprof = true
	on := httptest.NewServer(sv.routes())
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with -pprof: status %d", path, resp.StatusCode)
		}
	}
}

// TestStatsReportsEngine drives a plane whose spec string selects the
// parallel engine through the HTTP layer and checks the engine choice
// surfaces in the per-plane fabric breakdown of GET /stats.
func TestStatsReportsEngine(t *testing.T) {
	cfg := federation.Config{Planes: []federation.PlaneConfig{{
		Fabric: fabric.Config{
			Tree:          topology.MustNew(3, 4, 4),
			SchedulerSpec: "parallel,mode=deterministic,workers=2",
			BatchSize:     2,
			MaxWait:       time.Hour,
		},
	}}}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})

	// Two concurrent connects fill one epoch of two, which the
	// deterministic engine schedules on both workers (a lone request would run its
	// sequential core).
	codes := make(chan int, 2)
	for _, req := range []connectRequest{{Src: 0, Dst: 63}, {Src: 1, Dst: 62}} {
		go func(req connectRequest) { codes <- postJSON0(ts.URL+"/connect", req, nil) }(req)
	}
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("connect status %d", code)
		}
	}
	var raw map[string]any
	getJSON(t, ts.URL+"/stats", &raw)
	planes, _ := raw["planes"].([]any)
	if len(planes) != 1 {
		t.Fatalf("stats planes = %v", raw["planes"])
	}
	fb, _ := planes[0].(map[string]any)["fabric"].(map[string]any)
	if fb["last_epoch_engine"] != "parallel-level-wise/deterministic/w2" {
		t.Errorf("last_epoch_engine = %v", fb["last_epoch_engine"])
	}
}

// postJSON0 is postJSON without the testing.T, usable from goroutines.
func postJSON0(url string, body any, out any) int {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil {
		if json.NewDecoder(resp.Body).Decode(out) != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// TestFaultEndpoints drives the fault-injection surface end to end on a
// single-plane federation (the plane field may be omitted): inject over
// HTTP, watch a held connection get revoked and repaired, read the
// degraded health, then heal and confirm recovery.
func TestFaultEndpoints(t *testing.T) {
	cfg := federation.Config{Planes: []federation.PlaneConfig{{
		Fabric: fabric.Config{
			Tree:          topology.MustNew(2, 4, 4),
			BatchSize:     1,
			MaxWait:       200 * time.Microsecond,
			RepairBackoff: 500 * time.Microsecond,
		},
	}}}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})
	surf, _ := router.Plane("plane0")

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 15}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}

	// Kill the link the connection climbs through; no plane named — the
	// sole plane is the implied target.
	var fr faultResponse
	body := faultRequest{FaultSet: faults.FaultSet{Links: []faults.LinkFault{
		{Level: 0, Switch: 0, Port: conn.Ports[0]},
	}}}
	if code := postJSON(t, ts.URL+"/fault", body, &fr); code != http.StatusOK {
		t.Fatalf("fault status %d", code)
	}
	if fr.Plane != "plane0" || fr.Failed != 2 || fr.Revoked != 1 {
		t.Fatalf("fault response %+v, want plane0 failed=2 revoked=1", fr)
	}

	// Degraded health while the faults stand.
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Planes[0].FaultyChannels != 2 || hz.Planes[0].DegradedCapacity >= 1.0 {
		t.Fatalf("degraded healthz %+v", hz)
	}
	var fl faultsResponse
	getJSON(t, ts.URL+"/faults", &fl)
	if len(fl.Planes) != 1 || fl.Planes[0].FaultyChannels != 2 ||
		len(fl.Planes[0].Links) != 1 || fl.Planes[0].Links[0].Port != conn.Ports[0] {
		t.Fatalf("faults body %+v", fl)
	}

	// The repair loop re-admits the revoked connection around the fault.
	deadline := time.Now().Add(5 * time.Second)
	for surf.Stats().Repaired < 1 {
		if time.Now().After(deadline) {
			t.Fatal("repair did not complete within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if fb := st.Planes[0].Fabric; fb.Revoked != 1 || fb.Repaired != 1 || fb.FaultyChannels != 2 {
		t.Fatalf("stats after repair %+v", fb)
	}

	// Heal the whole plane (repair with an empty set); health returns to
	// ok and the handle releases.
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Repair: true}, &fr); code != http.StatusOK || fr.Repaired != 2 {
		t.Fatalf("repair-all status %d resp %+v", code, fr)
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Planes[0].DegradedCapacity != 1.0 {
		t.Fatalf("healed healthz %+v", hz)
	}
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusOK {
		t.Fatalf("release after repair status %d", code)
	}
}

// TestPlaneKillAndRepairOverHTTP exercises the whole-plane fault verbs:
// kill a named plane, watch traffic land on the survivor and health go
// degraded, then repair the plane and watch it rejoin.
func TestPlaneKillAndRepairOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 1)

	var fr faultResponse
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0", Kill: true}, &fr); code != http.StatusOK {
		t.Fatalf("kill status %d", code)
	}
	if !fr.Killed || fr.Plane != "plane0" {
		t.Fatalf("kill response %+v", fr)
	}

	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Planes[0].Healthy || !hz.Planes[1].Healthy {
		t.Fatalf("healthz after kill %+v", hz)
	}
	// Admissions keep flowing, on the survivor.
	for i := 0; i < 4; i++ {
		var conn connectResponse
		if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: i, Dst: 15 - i}, &conn); code != http.StatusOK {
			t.Fatalf("connect %d status %d", i, code)
		}
		if conn.Plane != "plane1" {
			t.Errorf("connect %d landed on %q, want plane1", i, conn.Plane)
		}
	}

	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0", Repair: true}, &fr); code != http.StatusOK {
		t.Fatalf("plane repair status %d", code)
	}
	if fr.Plane != "plane0" || fr.Repaired == 0 {
		t.Fatalf("plane repair response %+v", fr)
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || !hz.Planes[0].Healthy {
		t.Fatalf("healthz after plane repair %+v", hz)
	}
}

// TestFaultEndpointValidation pins the error paths: malformed JSON,
// out-of-range components, the empty injection body, and plane
// addressing mistakes.
func TestFaultEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 4)

	resp, err := http.Post(ts.URL+"/fault", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fault body status %d", resp.StatusCode)
	}

	var er errorResponse
	bad := faultRequest{Plane: "plane0", FaultSet: faults.FaultSet{Links: []faults.LinkFault{{Level: 9, Switch: 0, Port: 0}}}}
	if code := postJSON(t, ts.URL+"/fault", bad, &er); code != http.StatusBadRequest || er.Error == "" {
		t.Errorf("out-of-range fault: status %d body %+v", code, er)
	}
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0"}, &er); code != http.StatusBadRequest {
		t.Errorf("empty injection: status %d", code)
	}
	// A multi-plane federation demands a plane name...
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Kill: true}, &er); code != http.StatusBadRequest {
		t.Errorf("unaddressed multi-plane fault: status %d", code)
	}
	// ...and rejects unknown ones.
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane9", Kill: true}, &er); code != http.StatusBadRequest {
		t.Errorf("unknown plane: status %d", code)
	}
	// GET /faults on a healthy federation renders empty lists, not null.
	var raw map[string]any
	getJSON(t, ts.URL+"/faults", &raw)
	planes, ok := raw["planes"].([]any)
	if !ok || len(planes) != 2 {
		t.Fatalf("healthy /faults planes = %v", raw["planes"])
	}
	for _, p := range planes {
		if links, ok := p.(map[string]any)["links"].([]any); !ok || len(links) != 0 {
			t.Errorf("healthy /faults links = %v, want []", p.(map[string]any)["links"])
		}
	}
}

// TestBuildConfig pins the flag-vs-file resolution buildConfig performs
// for main.
func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("", 3, "least-loaded", 2, 4, 2, 8, time.Millisecond, 64, 0, "level-wise,rollback", grayFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Planes) != 3 || cfg.Policy != federation.PolicyLeastLoaded {
		t.Fatalf("flag-built config %+v", cfg)
	}
	if cfg.Planes[0].Fabric.Tree == cfg.Planes[1].Fabric.Tree {
		t.Error("planes share one tree")
	}
	if cfg.Planes[2].Fabric.BatchSize != 8 || cfg.Planes[2].Fabric.MaxWait != time.Millisecond {
		t.Errorf("plane knobs %+v", cfg.Planes[2].Fabric)
	}
	if _, err := buildConfig("", 0, "hash", 2, 2, 2, 1, 0, 0, 0, "", grayFlags{}); err == nil {
		t.Error("0 planes accepted")
	}
	if _, err := buildConfig("", 1, "fastest", 2, 2, 2, 1, 0, 0, 0, "", grayFlags{}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := buildConfig("/does/not/exist.json", 1, "hash", 2, 2, 2, 1, 0, 0, 0, "", grayFlags{}); err == nil {
		t.Error("missing config file accepted")
	}
}

// getJSON fetches and decodes a GET endpoint.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
