package engine

import (
	"strings"
	"testing"
)

// TestRestoreCkptBoundsRNGDraws pins that RestoreCkpt replays at most the
// RNG draws the checkpoint's mispredictions and its memory's wrong-path
// loads can have made and rejects a larger count at once: replaying a
// corrupt count of 10^15 one draw at a time would take days, even when the
// engine section's mispredict count is corrupt as well.
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
	mem := s.Mem.AppendExact(nil)
	restore := func(mispredicts, draws uint64) error {
		c := ck
		c.Stats.Mispredicts, c.RNGDraws = mispredicts, draws
		r := newSys()
		if err := r.Mem.RestoreExact(mem); err != nil {
			t.Fatalf("restoring the memory: %v", err)
		}
		return r.RestoreCkpt(c)
	}
	mp := ck.Stats.Mispredicts
	if err := restore(mp, ck.RNGDraws); err != nil {
		t.Fatalf("restoring the captured checkpoint: %v", err)
	}
	bound := maxDraws(mp, DefaultConfig().WrongPathLoads, s.Mem.Stats().WrongPathLoads)
	if err := restore(mp, bound); err != nil {
		t.Errorf("restoring %d draws, the bound: %v", bound, err)
	}
	for _, tc := range []struct{ mispredicts, draws uint64 }{{mp, bound + 1}, {mp, 1e15}, {1e14, 1e15}} {
		if err := restore(tc.mispredicts, tc.draws); err == nil || !strings.Contains(err.Error(), "RNG draws") {
			t.Errorf("restoring %d draws after %d mispredictions: error %v, want the draw bound's", tc.draws, tc.mispredicts, err)
		}
	}
	if got := maxDraws(1<<62, 4, 1<<63); got != ^uint64(0) {
		t.Errorf("maxDraws(2^62, 4, 2^63) = %d, want it saturated", got)
	}
}

// TestCaptureCkptRefusesBufferedOps: a core that holds operations the
// scheduler has not stepped yet is mid-run state, so CaptureCkpt panics on
// it. Run never returns normally in that state, so the test sets it directly.
func TestCaptureCkptRefusesBufferedOps(t *testing.T) {
	s := newSys()
	s.Run([]Program{computeProgram(10)})
	s.CaptureCkpt() // quiescent, core 0's queue ends at its stepped reqDone: no panic
	c := s.cores[1]
	c.ops[0], c.ops[1], c.nOps = request{kind: reqCompute, val: 5}, request{kind: reqDone}, 2
	got := func() (r any) {
		defer func() { r = recover() }()
		s.CaptureCkpt()
		return nil
	}()
	if got != "engine: CaptureCkpt with buffered operations" {
		t.Fatalf("recovered %v, want the buffered-operations panic", got)
	}
}
