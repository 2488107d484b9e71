package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side
// of the layer boundary. A round is the parent of its register, stream
// and drain spans; a stream is the parent of its per-batch spans.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Batch  int           `json:"batch"` // batch index within the round, -1 if none
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced phases run.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, batch int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Batch: batch, Start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.origin)
}

// writeJSONL writes one JSON object per span.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// durations returns the duration of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Children of one parent may overlap (pipelined batches), so their
// intervals are merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(children []span, lo, hi time.Duration) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total time.Duration
	cur := lo
	for _, c := range children {
		a, b := max(c.Start, cur), min(c.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
