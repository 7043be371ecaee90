package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // spans of one request or cycle share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Placed marks a span whose duration was measured by repeating the
	// call outside its parent (the coalescer runs its batch on its own
	// goroutine) and which was then placed at the end of the parent.
	Placed bool `json:"placed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil tracer records nothing, so the
// same workload code runs traced and untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// dur reads a finished span's duration.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].dur()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// place records a child that ran elsewhere for d as the last d of its
// parent's interval.
func (t *tracer) place(name string, parent, req int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	start := p.End - d.Nanoseconds()
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: start, End: p.End, Placed: true})
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// and are clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// byName groups span durations by span name.
func (t *tracer) byName() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// selfByName sums self time per span name: where the traced time went.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].Name] += d
	}
	return out
}

// write stores the spans of one workload's replay with the run's
// envelope.
func (t *tracer) write(cfg config, workload string) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"envelope": newEnvelope(cfg, workload, true), "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"), data, 0o644)
}
