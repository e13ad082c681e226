package metrics

import (
	"strings"
	"testing"
)

// TestSamplerWindows verifies the windowed sampling contract: one sample per
// crossed window boundary, stamped at the boundary cycle.
func TestSamplerWindows(t *testing.T) {
	var x uint64
	s := NewSampler(100)
	s.Probe("x", func() uint64 { return x })

	x = 1
	s.tick(40) // before first boundary: no sample
	x = 2
	s.tick(100) // crosses boundary 100
	x = 5
	s.tick(350) // crosses 200 and 300: two samples, both observe x=5
	x = 7
	s.Flush(420) // tail sample at 420

	sr := s.Snapshot("t")
	wantCycles := []int64{100, 200, 300, 420}
	wantX := []uint64{2, 5, 5, 7}
	if len(sr.Cycles) != len(wantCycles) {
		t.Fatalf("cycles = %v, want %v", sr.Cycles, wantCycles)
	}
	vals := sr.Col("x")
	for i := range sr.Cycles {
		if sr.Cycles[i] != wantCycles[i] {
			t.Fatalf("cycles = %v, want %v", sr.Cycles, wantCycles)
		}
		if vals[i] != wantX[i] {
			t.Fatalf("col x = %v, want %v", vals, wantX)
		}
	}
}

// TestSamplerFlushIdempotent verifies that Flush adds nothing when the last
// sample already covers the end cycle.
func TestSamplerFlushIdempotent(t *testing.T) {
	s := NewSampler(10)
	s.Probe("x", func() uint64 { return 1 })
	s.tick(10)
	s.Flush(10)
	if n := s.Rows(); n != 1 {
		t.Fatalf("expected single sample, got %d", n)
	}
}

// TestSamplerProbeAfterSample verifies that registering a probe after the
// first sample panics: columns must stay rectangular.
func TestSamplerProbeAfterSample(t *testing.T) {
	s := NewSampler(10)
	s.Probe("x", func() uint64 { return 0 })
	s.tick(25)
	defer func() {
		if recover() == nil {
			t.Fatal("Probe after first sample did not panic")
		}
	}()
	s.Probe("y", func() uint64 { return 0 })
}

// TestSamplerNilSafe verifies the disabled-instrument contract.
func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	if s.Enabled() {
		t.Fatal("nil Sampler reports enabled")
	}
}

// TestSamplerTickFastPathZeroAlloc pins the common case: a Tick inside the
// current window is a single comparison, no allocation.
func TestSamplerTickFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	s := NewSampler(1 << 40)
	s.Probe("x", func() uint64 { return 0 })
	now := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		now++
		s.tick(now)
	}); n != 0 {
		t.Errorf("Tick fast path: %v allocs/op, want 0", n)
	}
}

// TestSeriesSnapshotAndText verifies the serialisable form and the per-window
// delta rendering.
func TestSeriesSnapshotAndText(t *testing.T) {
	var a, b uint64
	s := NewSampler(50)
	s.Probe("alpha", func() uint64 { return a })
	s.Probe("beta", func() uint64 { return b })
	a, b = 10, 1
	s.tick(50)
	a, b = 30, 1
	s.tick(100)
	a, b = 60, 4
	s.Flush(130)

	sr := s.Snapshot("vacation/hmtx")
	if sr.Label != "vacation/hmtx" || sr.Window != 50 {
		t.Fatalf("series header wrong: %+v", sr)
	}
	if got := sr.Col("alpha"); len(got) != 3 || got[2] != 60 {
		t.Fatalf("Col(alpha) = %v", got)
	}
	if sr.Col("nope") != nil {
		t.Fatal("Col on unknown name should be nil")
	}

	text := sr.Text()
	for _, want := range []string{"vacation/hmtx", "Δalpha", "Δbeta", "20", "30"} {
		if !strings.Contains(text, want) {
			t.Errorf("series text missing %q:\n%s", want, text)
		}
	}
}
