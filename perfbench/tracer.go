package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Parent is the index of the enclosing
// span, or -1; Op numbers the benchmark op the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover. Overlapping children are
// counted once, and a child reaching outside its parent is clipped.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		self := s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covEnd := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covEnd), min(spans[k].End, s.End)
			if hi > lo {
				self -= hi - lo
				covEnd = hi
			}
		}
		out[i] = self
	}
	return out
}

// selfByName returns the self times of the spans named name, in
// microseconds.
func (t *tracer) selfByName(name string) []float64 {
	if t == nil {
		return nil
	}
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// write dumps the spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
