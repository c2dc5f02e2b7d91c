package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one recorded interval of the staged pass. Spans are recorded by
// the benchmark around its calls into each layer; spans inside the program
// are a later issue.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Op     int32  `json:"op"`     // index of the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id (ids start at 1).
func (r *recorder) begin(parent, op int32, name string) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now()})
	return id
}

func (r *recorder) end(id int32) { r.spans[id-1].End = r.now() }

func (r *recorder) dur(id int32) time.Duration {
	s := r.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span id-1, the span's duration minus the part of
// its interval that its children cover. Children may nest or overlap each
// other; the covered part is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[s.ID]
		if len(ks) == 0 {
			continue
		}
		slices.SortFunc(ks, func(a, b int32) int {
			return int(spans[a-1].Start - spans[b-1].Start)
		})
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k-1].Start, edge), min(spans[k-1].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// byName sums durations, self times and counts of spans[from:] per name.
type nameAgg struct {
	total, self int64
	n           int
}

func aggregate(spans []span, from int) map[string]nameAgg {
	self := selfTimes(spans)
	out := make(map[string]nameAgg)
	for i := from; i < len(spans); i++ {
		a := out[spans[i].Name]
		a.total += spans[i].End - spans[i].Start
		a.self += self[i]
		a.n++
		out[spans[i].Name] = a
	}
	return out
}

func (a nameAgg) usPer(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(a.total) / 1e3 / float64(n)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
