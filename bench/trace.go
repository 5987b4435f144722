package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int32  `json:"op"`     // index of the replayed operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans and counts in memory until the replay has ended. A
// nil recorder records nothing and reads no clock, which is the untraced
// replay the tracing overhead is measured against.
type recorder struct {
	t0     time.Time
	spans  []span
	open   []int32 // stack of open span ids
	op     int32
	counts map[string]int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity), counts: map[string]int64{}}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.open = append(r.open, id)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name})
	r.spans[id].Start = int64(time.Since(r.t0))
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = now
}

// count adds to a named count, taken at the same boundary as a span.
func (r *recorder) count(name string, v int64) {
	if r != nil {
		r.counts[name] += v
	}
}

// peak keeps the largest value seen under a name.
func (r *recorder) peak(name string, v int64) {
	if r != nil {
		r.counts[name] = max(r.counts[name], v)
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Children may overlap each other; covered time is
// counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, until := int64(0), s.Start
		for _, k := range ks {
			from, to := max(k.Start, until), min(k.End, s.End)
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceFile is what a traced run writes for one workload.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []span           `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
