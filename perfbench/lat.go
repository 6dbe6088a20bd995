package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 over 200 samples rests on two values; the percentile rule
// reports the highest percentile that ten samples back instead.
const minTail = 10

// latencies is one client's latency samples in nanoseconds. The buffer
// is allocated before the timed loop and used as a ring, so recording
// never allocates: once full, a sample overwrites the oldest one and
// the retained window is the end of the run.
type latencies struct {
	buf []uint32
	n   int // samples recorded, retained or not
}

func newLatencies(capacity int) *latencies {
	return &latencies{buf: make([]uint32, capacity)}
}

func (l *latencies) add(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	l.buf[l.n%len(l.buf)] = uint32(min(ns, math.MaxUint32))
	l.n++
}

// dist is a merged, sorted set of latency samples.
type dist struct {
	sorted []uint32 // ns, ascending
	count  int      // samples recorded, including any the rings dropped
}

func mergeLatencies(ls []*latencies) dist {
	var d dist
	for _, l := range ls {
		d.count += l.n
		d.sorted = append(d.sorted, l.buf[:min(l.n, len(l.buf))]...)
	}
	slices.Sort(d.sorted)
	return d
}

// tailQuantile returns want, or the highest quantile below it that
// still has minTail of n samples beyond it.
func tailQuantile(n int, want float64) float64 {
	if n <= minTail {
		return 0
	}
	return math.Min(want, 1-float64(minTail)/float64(n))
}

// quantile is the nearest-rank q-quantile of d in ns (NaN when empty).
func (d dist) quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return float64(d.sorted[min(max(rank, 1), n)-1])
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tail reports the percentile rule's quantile for want and its value.
func (d dist) tail(want float64) (q, ns float64) {
	q = tailQuantile(len(d.sorted), want)
	return q, d.quantile(q)
}

// median of xs, the mean of the middle two for an even count (NaN when
// empty).
func median[T ~int64 | ~float64](xs []T) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (float64(s[(len(s)-1)/2]) + float64(s[len(s)/2])) / 2
}

// selfNS is the time a layer adds over the layer below it: the median
// round trip through the layer minus the median round trip of the same
// request stream driven one layer down.
func selfNS(outer, inner dist) float64 { return outer.median() - inner.median() }
