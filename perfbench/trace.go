package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program.
type span struct {
	// Trace groups the spans of one request (a sweep pass or a job).
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are seconds since the run began.
	Start float64           `json:"start"`
	End   float64           `json:"end"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A tracer that is off records nothing, so untraced runs pay no tracing
// cost.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(trace, name string, parent int, start, end time.Time, attrs map[string]string) int {
	id := t.reserve()
	t.set(id, trace, name, parent, start, end, attrs)
	return id
}

// reserve returns the id of a span that ends later, so that the spans it
// causes can name it as their parent before it is set.
func (t *tracer) reserve() int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// set fills in the span with a reserved id.
func (t *tracer) set(id int, trace, name string, parent int, start, end time.Time, attrs map[string]string) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Attrs: attrs,
	}
}

// writeSpans saves the run's spans under .bench_build/trace.
func (r *run) writeSpans() {
	path := filepath.Join(r.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := r.tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
