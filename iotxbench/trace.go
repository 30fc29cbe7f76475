package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, opened by the benchmark around the
// layer's public function. Spans of one operation share op; a root span
// has parent 0. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that still measures durations.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span; the returned handle's close records it.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// newOp allocates an operation id (0 when untraced).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

func (t *tracer) open(name string, parent *openSpan, op int64) *openSpan {
	now := time.Now()
	if t == nil {
		return &openSpan{start: now}
	}
	o := &openSpan{tr: t, start: now, s: span{ID: t.ids.Add(1), Op: op, Name: name, Start: int64(now.Sub(t.t0))}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// close ends the span and returns its duration.
func (o *openSpan) close() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.tr != nil {
		o.s.End = int64(now.Sub(o.tr.t0))
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, o.s)
		o.tr.mu.Unlock()
	}
	return d
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent *openSpan, op int64, fn func()) time.Duration {
	s := t.open(name, parent, op)
	fn()
	return s.close()
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write dumps the spans, the per-layer self-time table (ms) and the
// tracing overhead to path.
func (t *tracer) write(path string, overheadMs float64) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		OverheadMs float64            `json:"tracing_overhead_ms"`
		SelfMs     map[string]float64 `json:"self_time_ms_by_layer"`
		Spans      []span             `json:"spans"`
	}{overheadMs, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
