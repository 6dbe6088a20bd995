package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, got float64
		beyond    int
	}{
		{n: 10000, want: 0.99, got: 0.99, beyond: 100},
		{n: 1000, want: 0.99, got: 0.99, beyond: 10},
		{n: 500, want: 0.99, got: 0.98, beyond: 10},
		{n: 100, want: 0.90, got: 0.90, beyond: 10},
		{n: 40, want: 0.90, got: 0.75, beyond: 10},
	} {
		q := tailQuantile(c.n, c.want)
		if diff := q - c.got; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, q, c.got)
		}
		d := dist{}
		for i := 1; i <= c.n; i++ {
			d.sorted = append(d.sorted, uint32(i))
		}
		_, v := d.tail(c.want)
		if beyond := c.n - int(v); beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond the reported value, want %d", c.n, beyond, c.beyond)
		}
	}
	if q := tailQuantile(minTail, 0.9); q != 0 {
		t.Errorf("tailQuantile(%d, 0.9) = %v, want 0 (no percentile has %d samples beyond it)", minTail, q, minTail)
	}
}

func TestLatenciesRingKeepsTheEndWithoutAllocating(t *testing.T) {
	l := newLatencies(4)
	allocs := testing.AllocsPerRun(100, func() { l.add(time.Microsecond) })
	if allocs != 0 {
		t.Fatalf("add allocates %v times per call", allocs)
	}
	l = newLatencies(4)
	for i := 1; i <= 6; i++ {
		l.add(time.Duration(i))
	}
	d := mergeLatencies([]*latencies{l})
	if d.count != 6 || !slices.Equal(d.sorted, []uint32{3, 4, 5, 6}) {
		t.Fatalf("got count %d samples %v, want 6 and the last four", d.count, d.sorted)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	outer := dist{sorted: []uint32{10, 12, 30}}
	inner := dist{sorted: []uint32{3, 4, 100}}
	if got := selfNS(outer, inner); got != 8 {
		t.Errorf("selfNS = %v, want median 12 - median 4 = 8", got)
	}
	// A request span [0,100) with two child calls [10,30) and [40,90),
	// and a grandchild [50,60) inside the second.
	spans := []span{
		{seq: 0, parent: -1, layer: layerBench, start: 0, end: 100},
		{seq: 1, parent: 0, layer: layerFederation, start: 10, end: 30},
		{seq: 2, parent: 0, layer: layerFederation, start: 40, end: 90},
		{seq: 3, parent: 2, layer: layerFabric, start: 50, end: 60},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 30, "federation": 60, "fabric": 10}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("self time of %s = %v, want %v (all: %v)", l, got[l], v, got)
		}
	}
}

func TestRecorderRingDropsOldestAndNilRecordsNothing(t *testing.T) {
	var off *recorder
	if seq := off.begin(1, -1, layerBench); seq != -1 {
		t.Fatalf("nil recorder returned seq %d", seq)
	}
	off.end(-1)
	r := newRecorder(time.Now(), 2)
	for i := range 3 {
		r.end(r.begin(uint64(i), -1, layerCore))
	}
	got := r.retained()
	if len(got) != 2 || got[0].id != 1 || got[1].id != 2 {
		t.Fatalf("retained %+v, want the spans of requests 1 and 2", got)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	draw := func(seed int64, client int) [][2]int {
		s := newStream(seed, client, 512)
		out := make([][2]int, 1000)
		for i := range out {
			out[i][0], out[i][1] = s.next()
			if out[i][0] == out[i][1] || out[i][0] < 0 || out[i][1] >= 512 {
				t.Fatalf("pair %v is not two distinct nodes of 512", out[i])
			}
		}
		return out
	}
	if !slices.Equal(draw(7, 3), draw(7, 3)) {
		t.Error("same seed and client gave different streams")
	}
	if slices.Equal(draw(7, 3), draw(8, 3)) || slices.Equal(draw(7, 3), draw(7, 4)) {
		t.Error("another seed or client gave the same stream")
	}
	a, b := permutations(64, 5), permutations(64, 5)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("permutation %d differs for the same seed", i)
		}
	}
}

func TestCheckSettled(t *testing.T) {
	ok := fabric.Stats{Offered: 10, Granted: 7, Rejected: 2, Cancelled: 1, Released: 7}
	if err := checkSettled(ok, 7); err != nil {
		t.Fatalf("settled plane reported: %v", err)
	}
	for name, st := range map[string]fabric.Stats{
		"lost request":     {Offered: 11, Granted: 7, Rejected: 2, Cancelled: 1, Released: 7},
		"double release":   {Offered: 10, Granted: 7, Rejected: 2, Cancelled: 1, Released: 8},
		"circuit held":     {Offered: 10, Granted: 7, Rejected: 2, Cancelled: 1, Released: 7, Active: 1},
		"channel held":     {Offered: 10, Granted: 7, Rejected: 2, Cancelled: 1, Released: 7, Occupancy: 2},
		"unseen grant":     {Offered: 10, Granted: 8, Rejected: 1, Cancelled: 1, Released: 8},
		"released nothing": {Offered: 10, Granted: 7, Rejected: 2, Cancelled: 1},
	} {
		if err := checkSettled(st, 7); err == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// runFake runs the command line on a workload that measures nothing
// and fails the given check, and returns the exit code and last line.
func runFake(t *testing.T, traced bool, checkErr error) (int, result) {
	t.Helper()
	workloads["fake"] = func(b *bench) error {
		b.count(3, 0)
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			b.put(m.name, 1.5, m.unit)
		}
		b.check("fake output", checkErr)
		return nil
	}
	defer delete(workloads, "fake")
	trace := "0"
	if traced {
		trace = "1"
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fake", "--seed", "1", "--seconds", "1", "--trace", trace}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, res
}

func TestBrokenOutputCheckFailsTheRun(t *testing.T) {
	code, res := runFake(t, false, nil)
	if code != 0 || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("passing run: exit %d, %+v", code, res)
	}
	code, res = runFake(t, true, nil)
	if code != 0 || !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("passing traced run: exit %d, %+v", code, res)
	}
	code, res = runFake(t, false, errors.New("offered 3 != granted 2 + rejected 0 + cancelled 0"))
	if code == 0 || res.Correct {
		t.Fatalf("failed check: exit %d, correct %v", code, res.Correct)
	}
}

func TestMissingMetricFailsTheRun(t *testing.T) {
	b := &bench{metrics: map[string]metric{}, diag: map[string]any{}, attempted: 1}
	for _, m := range endToEnd[1:] {
		b.put(m.name, 2, m.unit)
	}
	if res := b.result(); res.Correct {
		t.Fatalf("run without %s reported correct", endToEnd[0].name)
	}
}

// BENCHMARK.json at the repository root must name exactly the
// workloads and metrics this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	measured := []string{"bench.trace_overhead_pct"}
	for _, r := range ladder {
		measured = append(measured, r.names...)
	}
	for _, m := range perLayer {
		if !slices.Contains(measured, m.name) {
			t.Errorf("no ladder rung measures %s", m.name)
		}
	}
}

func TestDaemonRefusesAnAddressThatAnswers(t *testing.T) {
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer stale.Close()
	addr := strings.TrimPrefix(stale.URL, "http://")
	d, _, err := startDaemonAt(context.Background(), "ftserve-that-must-not-start", addr)
	if err == nil || !strings.Contains(err.Error(), "already answers") {
		if d != nil {
			d.kill()
		}
		t.Fatalf("started over a live server: %v", err)
	}
}
