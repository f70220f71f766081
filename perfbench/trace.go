package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Req;
// Parent is the ID of the enclosing span (0 for a root). Attrs carries the
// counts measured at the same boundary (BDD nodes, B&B nodes, bytes).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent,omitempty"`
	Name    string             `json:"name"`
	Req     string             `json:"req,omitempty"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return (s.EndUS - s.StartUS) / 1e3 } // ms

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// setOn switches recording on or off (a no-op on a nil tracer).
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// begin opens a span and returns its ID (0 when not tracing).
func (t *tracer) begin(parent int, req, name string) int {
	if !t.enabled() {
		return 0
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartUS: now})
	return len(t.spans)
}

// end closes span id, merging attrs into it.
func (t *tracer) end(id int, attrs map[string]float64) {
	if id == 0 {
		return
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndUS = now
	if len(attrs) > 0 {
		s.Attrs = attrs
	}
}

// rename replaces the name of span id once its outcome is known (the
// labeling span is named after the engine that produced the labels).
func (t *tracer) rename(id int, name string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// record adds an already-finished span.
func (t *tracer) record(parent int, req, name string, start time.Time, d time.Duration, attrs map[string]float64) int {
	if !t.enabled() {
		return 0
	}
	s := span{Parent: parent, Name: name, Req: req, StartUS: t.us(start), EndUS: t.us(start.Add(d)), Attrs: attrs}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans, with the environment stamp, as one JSON file.
func (t *tracer) write(path string, env envStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats is a set of spans summed up: durations (ms) by span name, and
// attrs by attr key.
type spanStats struct {
	ms    map[string]float64
	attrs map[string]float64
}

func summarize(spans []span) spanStats {
	st := spanStats{ms: map[string]float64{}, attrs: map[string]float64{}}
	for _, s := range spans {
		st.ms[s.Name] += s.dur()
		for k, v := range s.Attrs {
			st.attrs[k] += v
		}
	}
	return st
}
