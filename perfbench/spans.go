package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a cell, or a sweep) share Op; Parent links a span to the
// one that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out when
// the benchmark ends. A disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: t.since(time.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.since(time.Now())
	}
}

// add records an already-timed span, such as a sweep cell the watcher saw.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: t.since(start), End: t.since(end)})
	}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if !t.on {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
