package engine

import "hmtx/internal/metrics"

type msys struct {
	series    *metrics.Sampler
	conflicts *metrics.Recorder
	lat       *metrics.LatHists
}

// Guarded records are the contract: no diagnostics.
func (s *msys) guarded(now int64) {
	if s.series.Enabled() {
		s.series.Tick(now)
	}
	if s.conflicts.Enabled() && now > 0 {
		// Nested inside the guard body still counts.
		if now > 16 {
			s.conflicts.SetTime(now)
		}
		s.conflicts.Record(1, 2, 0x40, metrics.EdgeConflict)
	}
	if s.lat.Enabled() {
		s.lat.Open.Observe(uint64(now))
		s.lat.CommitArb.Observe(0)
	}
	r := s.conflicts
	if r.Enabled() {
		r.Record(0, 1, 0x80, metrics.EdgeConflict)
	}
}

func (s *msys) unguarded(now int64) {
	s.series.Tick(now) // want `Sampler.Tick outside an Enabled\(\) guard`
	if now != 0 {
		// An if statement that never consults Enabled is not a guard.
		s.conflicts.Record(1, 2, 0x40, metrics.EdgeConflict) // want `Recorder.Record outside an Enabled\(\) guard`
	}
	if s.lat.Enabled() {
		_ = now
	}
	// After a guard body ends the gate is closed again.
	s.lat.Open.Observe(uint64(now)) // want `Hist.Observe outside an Enabled\(\) guard`
}

// Each metrics kind is its own gate (v3): the histogram bundle's guard
// covers its Hists, but not the conflict recorder.
func (s *msys) crossKind(now int64) {
	if s.lat.Enabled() {
		s.conflicts.Record(1, 2, 0x40, metrics.EdgeConflict) // want `Recorder.Record outside an Enabled\(\) guard`
		s.lat.Open.Observe(uint64(now))
	}
	if s.conflicts.Enabled() {
		s.series.Tick(now)          // want `Sampler.Tick outside an Enabled\(\) guard`
		s.lat.Validation.Observe(0) // want `Hist.Observe outside an Enabled\(\) guard`
		s.conflicts.SetTime(now)
	}
}

// Methods named like instrument methods on other types are not instrument
// calls, and Enabled itself needs no guard.
type ticker struct{}

func (ticker) Tick(now int64) {}

func useTicker(m ticker, sm *metrics.Sampler) bool {
	m.Tick(1)
	return sm.Enabled()
}
