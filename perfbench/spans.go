package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names a module of the repository, as spans and metrics use it.
type layer uint8

const (
	layerBench layer = iota
	layerTopology
	layerLinkstate
	layerCore
	layerFabric
	layerFederation
	layerFtserve
)

var layerNames = [...]string{"bench", "topology", "linkstate", "core", "fabric", "federation", "ftserve"}

func (l layer) String() string { return layerNames[l] }

// span is one call from the benchmark's own code into a layer.
type span struct {
	id         uint64 // request id, shared by the spans of one request
	seq        int64  // position in the recorder's stream
	parent     int64  // seq of the enclosing span, -1 for a root
	layer      layer
	start, end int64 // ns since the recorder's base time
}

// recorder keeps one goroutine's spans in a ring allocated before the
// timed loop. A nil recorder records nothing, which is how untraced
// runs call the same code without paying for the clock reads.
type recorder struct {
	base  time.Time
	spans []span
	n     int64
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, capacity)}
}

// begin opens a span and returns its seq for end and for children.
func (r *recorder) begin(id uint64, parent int64, l layer) int64 {
	if r == nil {
		return -1
	}
	seq := r.n
	r.n++
	r.spans[seq%int64(len(r.spans))] = span{id: id, seq: seq, parent: parent, layer: l,
		start: int64(time.Since(r.base)), end: -1}
	return seq
}

func (r *recorder) end(seq int64) {
	if r == nil {
		return
	}
	if s := &r.spans[seq%int64(len(r.spans))]; s.seq == seq {
		s.end = int64(time.Since(r.base))
	}
}

// retained returns the closed spans still in the ring, oldest first.
func (r *recorder) retained() []span {
	var out []span
	for seq := max(0, r.n-int64(len(r.spans))); seq < r.n; seq++ {
		if s := r.spans[seq%int64(len(r.spans))]; s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover. A goroutine's spans are nested, never
// overlapping siblings, so the children's clipped durations add up.
// Spans whose parent fell out of the ring count as roots.
func selfTimes(spans []span) map[string]float64 {
	byseq := make(map[int64]int, len(spans))
	for i, s := range spans {
		byseq[s.seq] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if p, ok := byseq[s.parent]; ok {
			ps := spans[p]
			self[p] -= min(s.end, ps.end) - max(s.start, ps.start)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.layer.String()] += float64(self[i])
	}
	return out
}

// writeSpans writes every recorder's retained spans as JSON lines and
// returns the per-layer self time of those spans in ms.
func writeSpans(path string, recs []*recorder) (map[string]float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	selfMS := map[string]float64{}
	for c, r := range recs {
		spans := r.retained()
		for _, s := range spans {
			fmt.Fprintf(w, `{"goroutine":%d,"span":%d,"parent":%d,"id":%d,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				c, s.seq, s.parent, s.id, s.layer.String(), s.start, s.end)
		}
		for l, ns := range selfTimes(spans) {
			selfMS[l] += ns / 1e6
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return selfMS, f.Close()
}
