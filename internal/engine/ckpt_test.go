package engine

import (
	"strings"
	"testing"
)

// TestRestoreCkptBoundsRNGDraws pins that RestoreCkpt replays at most the
// RNG draws the checkpoint's mispredictions can have made and rejects a
// larger count at once: replaying a corrupt count of 10^15 one draw at a
// time would take days.
func TestRestoreCkptBoundsRNGDraws(t *testing.T) {
	s := newSys()
	res := s.Run([]Program{func(e *Env) {
		e.Begin(1)
		e.Store(privLine(0), 1)
		for k := 0; k < 20; k++ {
			e.Load(privLine(0))
			e.Branch(0, k%3 != 0)
		}
		e.Commit(1)
	}})
	ck := s.CaptureCkpt()
	if res.Aborted || ck.Stats.Mispredicts == 0 || ck.RNGDraws == 0 {
		t.Fatalf("workload must commit and draw wrong-path addresses: %+v, %d mispredicts, %d draws",
			res, ck.Stats.Mispredicts, ck.RNGDraws)
	}
	restore := func(draws uint64) error {
		c := ck
		c.RNGDraws = draws
		return newSys().RestoreCkpt(c)
	}
	if err := restore(ck.RNGDraws); err != nil {
		t.Fatalf("restoring the captured checkpoint: %v", err)
	}
	bound := maxDraws(ck.Stats.Mispredicts, DefaultConfig().WrongPathLoads)
	if err := restore(bound); err != nil {
		t.Errorf("restoring %d draws, the bound: %v", bound, err)
	}
	for _, draws := range []uint64{bound + 1, 1e15} {
		if err := restore(draws); err == nil || !strings.Contains(err.Error(), "RNG draws") {
			t.Errorf("restoring %d draws: error %v, want the draw bound's", draws, err)
		}
	}
	if got := maxDraws(1<<62, 4); got != ^uint64(0) {
		t.Errorf("maxDraws(2^62, 4) = %d, want it saturated", got)
	}
}

// TestCaptureCkptRefusesBufferedOps: a core that holds operations the
// scheduler has not stepped yet is mid-run state, so CaptureCkpt panics on
// it. Run never returns normally in that state, so the test sets it directly.
func TestCaptureCkptRefusesBufferedOps(t *testing.T) {
	s := newSys()
	s.Run([]Program{computeProgram(10)})
	s.CaptureCkpt() // quiescent: no panic
	s.cores[1].fuse(request{kind: reqCompute, val: 5})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.CaptureCkpt()
		return nil
	}()
	if got != "engine: CaptureCkpt with buffered operations" {
		t.Fatalf("recovered %v, want the buffered-operations panic", got)
	}
}
