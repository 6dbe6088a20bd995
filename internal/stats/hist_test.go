package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// logNormal draws n seeded log-normal samples around 200 (a latency in
// microseconds, say) with a heavy right tail.
func logNormal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(math.Log(200) + 0.8*rng.NormFloat64())
	}
	return xs
}

func TestHistRecordZeroAllocs(t *testing.T) {
	var h Hist
	x := 0.0
	if a := testing.AllocsPerRun(1000, func() {
		x += 1.7
		h.Record(x)
	}); a != 0 {
		t.Fatalf("Record allocates %v per call", a)
	}
}

// TestHistQuantileError checks every quantile against the exact
// nearest-rank Percentile of the same seeded samples: never above it,
// and below it by less than HistRelErr.
func TestHistQuantileError(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		xs := logNormal(seed, 5000)
		var h Hist
		for _, x := range xs {
			h.Record(x)
		}
		s := h.Snapshot()
		sum := Summarize(xs)
		if s.N != uint64(len(xs)) || s.Min != sum.Min || s.Max != sum.Max {
			t.Fatalf("seed %d: N/Min/Max = %d/%v/%v, want %d/%v/%v", seed, s.N, s.Min, s.Max, len(xs), sum.Min, sum.Max)
		}
		if !approx(s.Mean(), sum.Mean, 1e-9*sum.Mean) || !approx(s.StdDev(), sum.StdDev, 1e-6*sum.StdDev) {
			t.Fatalf("seed %d: mean/sd = %v/%v, want %v/%v", seed, s.Mean(), s.StdDev(), sum.Mean, sum.StdDev)
		}
		for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
			got, want := s.Quantile(p), Percentile(xs, p)
			if got > want || got < want/(1+HistRelErr) {
				t.Errorf("seed %d p%v: hist %v, exact %v (rel err %.4f > %.4f)",
					seed, p, got, want, (want-got)/want, HistRelErr)
			}
		}
	}
}

// TestHistSmallIntegersExact: every integer below 64 is a bucket lower
// bound, so epoch sizes and repair depths report exactly.
func TestHistSmallIntegersExact(t *testing.T) {
	var h Hist
	var xs []float64
	for v := 1; v <= 64; v++ {
		for k := 0; k < v%5+1; k++ {
			h.Record(float64(v))
			xs = append(xs, float64(v))
		}
	}
	s := h.Snapshot()
	for p := 1.0; p < 100; p += 3 {
		if got, want := s.Quantile(p), Percentile(xs, p); got != want {
			t.Fatalf("p%v = %v, want exactly %v", p, got, want)
		}
	}
}

// TestHistMerge: merging two histograms' snapshots equals recording the
// union.
func TestHistMerge(t *testing.T) {
	var ha, hb, union Hist
	for _, x := range logNormal(1, 3000) {
		ha.Record(x)
		union.Record(x)
	}
	for _, x := range logNormal(2, 2000) {
		hb.Record(x)
		union.Record(x)
	}
	var merged Hist
	sa, sb := ha.Snapshot(), hb.Snapshot()
	merged.Merge(&sa)
	merged.Merge(&sb)
	got, want := merged.Snapshot(), union.Snapshot()
	if got.counts != want.counts || got.lo != want.lo || got.hi != want.hi || got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
		!approx(got.Sum, want.Sum, 1e-9*want.Sum) || !approx(got.SumSq, want.SumSq, 1e-9*want.SumSq) {
		t.Fatal("merged snapshot differs from the union's")
	}
	for _, p := range []float64{50, 95, 99} {
		if got.Quantile(p) != want.Quantile(p) {
			t.Fatalf("p%v: merged %v, union %v", p, got.Quantile(p), want.Quantile(p))
		}
	}
}

func TestHistEmptyAndNonFinite(t *testing.T) {
	var h Hist
	h.Record(math.NaN())
	h.Record(math.Inf(1))
	h.Record(math.Inf(-1))
	s := h.Snapshot()
	if s.N != 0 || s.Quantile(50) != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Bins(8) != nil {
		t.Fatalf("non-finite samples were recorded: %+v", s)
	}
	// Negatives share the underflow bucket, reported at 0 and clamped
	// into [Min, Max]: an all-negative sample reports its Max.
	h.Record(-3)
	h.Record(-1)
	s = h.Snapshot()
	if s.N != 2 || s.Min != -3 || s.Max != -1 || s.Quantile(50) != -1 || s.Quantile(0) != -3 {
		t.Fatalf("underflow samples: N=%d min=%v max=%v p0=%v p50=%v",
			s.N, s.Min, s.Max, s.Quantile(0), s.Quantile(50))
	}
}

func TestHistBins(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var h Hist
	for _, x := range xs {
		h.Record(x)
	}
	s := h.Snapshot()
	got, want := s.Bins(8), Histogram(xs, 1, 8, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bins = %v, Histogram = %v", got, want)
		}
	}
}

// TestHistConcurrent records from several goroutines while another
// snapshots; run under -race. Every snapshot must be self-consistent and
// the final count exact.
func TestHistConcurrent(t *testing.T) {
	const writers, per = 4, 2000
	var h Hist
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := h.Snapshot()
			if s.N == 0 {
				continue
			}
			p50, p99 := s.Quantile(50), s.Quantile(99)
			if p50 > p99 || p50 < s.Min || p99 > s.Max {
				t.Errorf("snapshot %d: p50 %v p99 %v outside [%v, %v]", i, p50, p99, s.Min, s.Max)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, x := range logNormal(int64(w), per) {
				h.Record(x)
			}
		}(w)
	}
	wg.Wait()
	<-done
	if s := h.Snapshot(); s.N != writers*per {
		t.Fatalf("N = %d, want %d", s.N, writers*per)
	}
}

// FuzzHist: Record never panics, N counts every finite sample, and the
// quantiles are monotone in p and inside [Min, Max], whatever the input.
func FuzzHist(f *testing.F) {
	f.Add(1.0, 2.0, 3.0)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		var h Hist
		finite := uint64(0)
		for _, x := range []float64{a, b, c, a * b, b - c} {
			h.Record(x)
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				finite++
			}
		}
		s := h.Snapshot()
		if s.N != finite {
			t.Fatalf("N = %d, want %d finite samples", s.N, finite)
		}
		if s.N == 0 {
			return
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0, 1, 25, 50, 75, 95, 99, 100} {
			q := s.Quantile(p)
			if q < prev || q < s.Min || q > s.Max {
				t.Fatalf("p%v = %v: prev %v, range [%v, %v]", p, q, prev, s.Min, s.Max)
			}
			prev = q
		}
		s.Bins(8)
	})
}
