package stats

// Hist is the one latency/size histogram of the serving stack: fixed
// log-linear buckets in the style of HdrHistogram, so recording is a
// handful of atomic adds and a snapshot is O(buckets) — no samples are
// retained, nothing is sorted, and two histograms merge by adding their
// bucket counts (which is what makes fleet-wide percentiles true
// percentiles rather than averages of per-plane ones).
//
// Bucket layout: every power of two in [2^histMinExp, 2^histMaxExp) is
// split into histSub equal-width sub-buckets, indexed straight from the
// float's exponent and top mantissa bits. A bucket is reported by its
// lower bound, so a quantile estimate is never above the true
// nearest-rank sample and falls below it by less than 1/histSub of it
// (HistRelErr, about 3.1%). Integers below 2·histSub sit exactly on a
// bucket's lower bound, so small counts — epoch sizes up to 64, repair
// depths — are exact. Samples under 2^histMinExp (zero, negatives,
// subnormals) share one underflow bucket and samples at or above
// 2^histMaxExp one overflow bucket; every estimate is clamped into
// [Min, Max], so those extremes still report exactly when they are the
// whole sample.

import (
	"math"
	"sync/atomic"
)

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histMinExp  = -16              // 2^-16 ≈ 1.5e-5: below is underflow
	histMaxExp  = 40               // 2^40 ≈ 1.1e12: at or above is overflow
	// histBuckets counts the underflow bucket, the log-linear range and
	// the overflow bucket.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// HistRelErr bounds a Hist quantile's relative error inside the
// bucketed range: estimate ≤ true < estimate·(1 + HistRelErr).
const HistRelErr = 1.0 / histSub

var (
	histLow  = math.Ldexp(1, histMinExp)
	histHigh = math.Ldexp(1, histMaxExp)
	infBits  = math.Float64bits(math.Inf(1))
	ninfBits = math.Float64bits(math.Inf(-1))
)

// Hist is a concurrent histogram of float64 samples. The zero value is
// an empty histogram ready for use; Record, Merge and Snapshot may run
// from any goroutine at once. A Hist must not be copied after first use.
type Hist struct {
	sum   atomic.Uint64 // math.Float64bits of the running sum
	sumSq atomic.Uint64 // … and of the running sum of squares
	// min and max hold math.Float64bits of the extremes XOR-ed with the
	// bits of +Inf and -Inf respectively, so the zero value decodes as
	// the empty extremes (+Inf, -Inf) without a constructor.
	min    atomic.Uint64
	max    atomic.Uint64
	bucket [histBuckets]atomic.Uint64
}

// histIndex maps a sample to its bucket; -Inf maps to the first bucket
// and +Inf to the last, the range an empty Hist's extremes span.
func histIndex(x float64) int {
	switch {
	case x < histLow:
		return 0
	case x >= histHigh:
		return histBuckets - 1
	}
	bits := math.Float64bits(x)
	exp := int(bits>>52) - 1023
	sub := int(bits>>(52-histSubBits)) & (histSub - 1)
	return 1 + (exp-histMinExp)*histSub + sub
}

// histLower holds each bucket's lower bound, the value a quantile
// reports: 0 for the underflow bucket, 2^histMaxExp for the overflow.
var histLower = func() (t [histBuckets]float64) {
	for i := 1; i < histBuckets-1; i++ {
		j := i - 1
		t[i] = math.Ldexp(1+float64(j%histSub)/histSub, histMinExp+j/histSub)
	}
	t[histBuckets-1] = histHigh
	return t
}()

// addFloat atomically adds d to the float64 whose bits a holds.
func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// casMin lowers the +Inf-keyed minimum in a to x when x is smaller.
func casMin(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		if x >= math.Float64frombits(old^infBits) || a.CompareAndSwap(old, math.Float64bits(x)^infBits) {
			return
		}
	}
}

// casMax raises the -Inf-keyed maximum in a to x when x is larger.
func casMax(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		if x <= math.Float64frombits(old^ninfBits) || a.CompareAndSwap(old, math.Float64bits(x)^ninfBits) {
			return
		}
	}
}

// Record adds one sample. NaN and ±Inf are ignored: they have no bucket
// and would poison the sum. Record never allocates.
//
// The bucket count is published last: Snapshot loads the buckets before
// the extremes, so any sample it counts is already inside its [Min, Max].
func (h *Hist) Record(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	casMin(&h.min, x)
	casMax(&h.max, x)
	addFloat(&h.sum, x)
	addFloat(&h.sumSq, x*x)
	h.bucket[histIndex(x)].Add(1)
}

// Merge adds a snapshot's samples into h: how per-plane histograms
// combine into one fleet-wide distribution whose percentiles are true
// percentiles of the union.
func (h *Hist) Merge(s *HistSnapshot) {
	if s.N == 0 {
		return
	}
	casMin(&h.min, s.Min)
	casMax(&h.max, s.Max)
	addFloat(&h.sum, s.Sum)
	addFloat(&h.sumSq, s.SumSq)
	for i := s.lo; i <= s.hi; i++ {
		if c := s.counts[i]; c != 0 {
			h.bucket[i].Add(c)
		}
	}
}

// Snapshot copies the histogram in O(occupied buckets): the extremes
// bound the bucket range that can hold samples, and only that range is
// read. Under concurrent Record the copy is consistent enough: N is the
// sum of the copied bucket counts, so the quantiles are always
// self-consistent, while Sum, Min and Max may include a sample or two
// the counts do not yet.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	lo := histIndex(math.Float64frombits(h.min.Load() ^ infBits))
	hi := histIndex(math.Float64frombits(h.max.Load() ^ ninfBits))
	for i := lo; i <= hi; i++ {
		c := h.bucket[i].Load()
		if c == 0 {
			continue
		}
		if s.N == 0 {
			s.lo = i
		}
		s.hi = i
		s.counts[i] = c
		s.N += c
	}
	if s.N == 0 {
		return HistSnapshot{}
	}
	// Reload the extremes after the counts: Record moves them before it
	// counts, so these cover every sample counted above.
	s.Sum = math.Float64frombits(h.sum.Load())
	s.SumSq = math.Float64frombits(h.sumSq.Load())
	s.Min = math.Float64frombits(h.min.Load() ^ infBits)
	s.Max = math.Float64frombits(h.max.Load() ^ ninfBits)
	return s
}

// HistSnapshot is a plain copy of a Hist, safe to pass by value; feed
// it to Hist.Merge to combine distributions. The zero value is the
// empty distribution. Its queries walk only the occupied bucket range
// [lo, hi], so they cost the span of the data, not the whole layout.
type HistSnapshot struct {
	N        uint64
	Sum      float64
	SumSq    float64
	Min, Max float64
	lo, hi   int // first and last non-empty bucket (N > 0)
	counts   [histBuckets]uint64
}

// Mean is the arithmetic mean; 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// StdDev is the sample standard deviation (n-1), from the running sums;
// 0 for fewer than two samples.
func (s *HistSnapshot) StdDev() float64 {
	if s.N < 2 {
		return 0
	}
	n := float64(s.N)
	v := (s.SumSq - s.Sum*s.Sum/n) / (n - 1)
	if !(v > 0) {
		return 0 // rounding can push a constant sample's variance below 0
	}
	return math.Sqrt(v)
}

// Quantile estimates the p-th percentile (0..100) with the nearest-rank
// rule Percentile uses: p ≤ 0 is Min, p ≥ 100 is Max, and anything
// between is the lower bound of the bucket holding the rank, clamped
// into [Min, Max] (see HistRelErr). Empty snapshots return 0.
func (s *HistSnapshot) Quantile(p float64) float64 {
	if s.N == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 100 {
		return s.Max
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.N)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := s.lo; i <= s.hi; i++ {
		if seen += s.counts[i]; seen >= rank {
			return s.clamp(histLower[i])
		}
	}
	return s.Max
}

func (s *HistSnapshot) clamp(x float64) float64 {
	switch {
	case x < s.Min:
		return s.Min
	case x > s.Max:
		return s.Max
	}
	return x
}

// Bins counts the samples into equal-width bins over [Min, Max] the way
// Histogram does, placing each bucket's samples at its (clamped) lower
// bound. It returns nil when fewer than two samples or Min == Max.
func (s *HistSnapshot) Bins(bins int) []int {
	if bins <= 0 || s.N < 2 || !(s.Max > s.Min) {
		return nil
	}
	out := make([]int, bins)
	width := (s.Max - s.Min) / float64(bins)
	for i := s.lo; i <= s.hi; i++ {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		b := int((s.clamp(histLower[i]) - s.Min) / width)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		out[b] += int(c)
	}
	return out
}
