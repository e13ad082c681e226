package metrics

import (
	"fmt"

	"hmtx/internal/obs"
	"hmtx/internal/stats"
)

// SeriesSchema is the schema tag of the time-series document.
const SeriesSchema = "hmtx-series/v1"

// DefaultWindow is the sampling window (simulated cycles) used when callers
// pass 0 to NewSampler.
const DefaultWindow = 2048

// probe is one registered column source: a closure over a live counter.
type probe struct {
	name string
	fn   func() uint64
}

// Sampler is the windowed time-series instrument (DESIGN.md §15): every time
// the global simulated clock crosses a window boundary it snapshots every
// registered probe into one row of a columnar series. The engine drives it
// from its event loop with KStep events; because the scheduler always runs the
// earliest-clock core and the probes read only simulated counters, the row
// sequence is a pure function of the simulated execution.
//
// The nil value is the valid disabled instrument: Enabled reports false.
type Sampler struct {
	window int64
	next   int64
	probes []probe

	cycles []int64    // sample timestamps (global simulated cycles)
	cols   [][]uint64 // cols[i][row] is probes[i] at cycles[row]
}

// NewSampler returns a sampler with the given window in simulated cycles
// (0 = DefaultWindow).
func NewSampler(window int64) *Sampler {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sampler{window: window, next: window}
}

// Enabled reports whether sampling is active: the emit-site guard, safe (and
// false) on a nil sampler.
func (s *Sampler) Enabled() bool { return s != nil }

// Window returns the sampling window in simulated cycles.
func (s *Sampler) Window() int64 { return s.window }

// Probe registers a named column. Registration order is the column order of
// the document, so callers must register probes in a fixed order. Probes
// must be registered before the first sample.
func (s *Sampler) Probe(name string, fn func() uint64) {
	if len(s.cycles) > 0 {
		panic("metrics: Probe after first sample")
	}
	s.probes = append(s.probes, probe{name: name, fn: fn})
	s.cols = append(s.cols, nil)
}

// Fold folds one event of the simulation's stream: a KStep advances the
// sampler to its global simulated cycle (Arg), taking one sample per crossed
// window boundary. Every other kind is ignored. The fast path, no boundary
// crossed, is two comparisons.
func (s *Sampler) Fold(e obs.Event) {
	if e.Kind == obs.KStep && int64(e.Arg) >= s.next {
		s.tick(int64(e.Arg))
	}
}

// tick takes one row per window boundary crossed up to global cycle now,
// stamped at the boundary it crossed: a long quiet stretch yields identical
// rows at each elapsed boundary rather than a gap, so rates read directly as
// per-window deltas. It stays out of line so that Fold inlines into the
// instrument hook.
//
//go:noinline
func (s *Sampler) tick(now int64) {
	for ; now >= s.next; s.next += s.window {
		s.sample(s.next)
	}
}

// Flush takes one final sample at the given cycle if it is past the last
// sampled boundary, capturing the tail of the run.
func (s *Sampler) Flush(now int64) {
	if n := len(s.cycles); n > 0 && s.cycles[n-1] >= now {
		return
	}
	s.sample(now)
}

func (s *Sampler) sample(at int64) {
	s.cycles = append(s.cycles, at)
	for i := range s.probes {
		s.cols[i] = append(s.cols[i], s.probes[i].fn())
	}
}

// Rows returns the number of samples taken.
func (s *Sampler) Rows() int {
	if s == nil {
		return 0
	}
	return len(s.cycles)
}

// Series is the serialisable form of one sampled execution: a columnar table
// of cumulative counter values at each sampled cycle.
type Series struct {
	Label  string   `json:"label"`
	Window int64    `json:"window"`
	Cycles []int64  `json:"cycles"`
	Cols   []Column `json:"columns"`
}

// Column is one named value column, index-aligned with Cycles.
type Column struct {
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
}

// SeriesDoc is the machine-readable time-series document ("hmtx-series/v1").
// Column order is probe-registration order and series order is append order,
// so the document is byte-identical across runs and suite parallelism.
type SeriesDoc struct {
	Schema string   `json:"schema"`
	Scale  int      `json:"scale,omitempty"`
	Cores  int      `json:"cores,omitempty"`
	Series []Series `json:"series"`
}

// Snapshot renders the sampler's rows under the given label.
func (s *Sampler) Snapshot(label string) Series {
	out := Series{
		Label:  label,
		Window: s.window,
		Cycles: append([]int64(nil), s.cycles...),
	}
	for i := range s.probes {
		out.Cols = append(out.Cols, Column{
			Name:   s.probes[i].name,
			Values: append([]uint64(nil), s.cols[i]...),
		})
	}
	return out
}

// Col returns the named column, or nil if the series does not have it.
func (sr *Series) Col(name string) []uint64 {
	for i := range sr.Cols {
		if sr.Cols[i].Name == name {
			return sr.Cols[i].Values
		}
	}
	return nil
}

// Text renders the series as an aligned table of per-window deltas for every
// column (the cumulative values differenced row to row), which is the shape
// rates are read in.
func (sr *Series) Text() string {
	out := fmt.Sprintf("time series: %s (window %d cycles, %d samples)\n", sr.Label, sr.Window, len(sr.Cycles))
	var t stats.Table
	header := []string{"cycle"}
	for i := range sr.Cols {
		header = append(header, "Δ"+sr.Cols[i].Name)
	}
	t.Add(header...)
	for row := range sr.Cycles {
		line := []string{fmt.Sprint(sr.Cycles[row])}
		for i := range sr.Cols {
			// Signed difference: gauge columns (occupancy) can fall
			// between windows.
			v := int64(sr.Cols[i].Values[row])
			if row > 0 {
				v -= int64(sr.Cols[i].Values[row-1])
			}
			line = append(line, fmt.Sprint(v))
		}
		t.Add(line...)
	}
	return out + t.String()
}
