package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. The benchmark records spans from its
// own code, around the public entry point of each layer it calls; spans of
// one benchmark operation share op.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // id of the enclosing span, 0 for a root
	Op     int64         `json:"op"`     // operation index; -1 for set-up
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (1-based; 0 from a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, op int64, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// layerTimes returns, per span name, the durations and the self times (the
// duration minus the time covered by the span's children) in milliseconds.
// Children of one span run one after another on the caller's goroutine, so
// the covered time is the sum of their durations.
func (t *tracer) layerTimes() (total, self map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] += s.dur()
		}
	}
	total = map[string][]float64{}
	self = map[string][]float64{}
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		total[s.Name] = append(total[s.Name], ms(s.dur()))
		own := s.dur() - children[i]
		if own < 0 {
			own = 0
		}
		self[s.Name] = append(self[s.Name], ms(own))
	}
	return total, self
}

// traceFile is where a traced run leaves its spans: beside the build, not
// in the run's scratch directory, which is removed when the run ends.
func traceFile(s spec, seed int64) string {
	return fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", s.Name, seed)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
