package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a simulator layer. Spans of one unit share
// Unit; Parent is the enclosing span's ID, or -1 for the unit's root span.
type span struct {
	Unit   int    `json:"unit"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	alloc0 uint64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count is a work count recorded at a layer boundary of one unit.
type count struct {
	Unit  int    `json:"unit"`
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends. A nil *tracer
// is tracing switched off: every method is a no-op, so traced and untraced
// passes run the same code.
type tracer struct {
	t0     time.Time
	units  int
	spans  []span
	counts []count
	stack  []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		units:  -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// unit opens the root span of a new unit; the returned ID is closed by end.
func (t *tracer) unit(name string) int {
	if t == nil {
		return -1
	}
	t.units++
	t.stack = t.stack[:0]
	return t.begin(name)
}

// begin opens a span nested in the innermost open span of the current unit.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Unit: t.units, ID: id, Parent: parent, Name: name,
		alloc0: t.allocBytes(), Start: int64(time.Since(t.t0)),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Alloc = t.allocBytes() - s.alloc0
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("simbench: span %q closed out of order", s.Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// abandon closes every open span of the current unit at the current time;
// a unit that panicked leaves its spans open.
func (t *tracer) abandon() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	for _, id := range t.stack {
		t.spans[id].End = now
	}
	t.stack = t.stack[:0]
}

// count records a work count for the current unit.
func (t *tracer) count(name string, v uint64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, count{Unit: t.units, Name: name, Value: v})
}

// mark returns the current end of the span and count logs, so a caller can
// aggregate what one pass recorded.
func (t *tracer) mark() (spans, counts int) { return len(t.spans), len(t.counts) }

// write saves every span and count as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Spans  []span  `json:"spans"`
		Counts []count `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
