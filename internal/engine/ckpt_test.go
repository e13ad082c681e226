package engine

import (
	"slices"
	"strings"
	"testing"

	"hmtx/internal/memsys"
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

// TestRestoreCkptRejectsTamperedSets pins that RestoreCkpt accepts a
// transaction's read and write sets only as CaptureCkpt writes them: line
// addresses, strictly ascending. A duplicate or unaligned entry would count
// as one more line of the set, so the commit would report more read or write
// bytes than the transaction touched.
func TestRestoreCkptRejectsTamperedSets(t *testing.T) {
	s := newSys()
	s.Run([]Program{func(e *Env) {
		e.Begin(1)
		e.Load(privLine(0))
		e.Load(privLine(1))
		e.Store(privLine(1), 1)
		e.Store(privLine(2), 2)
	}})
	ck := s.CaptureCkpt()
	tx := ck.Txs[1]
	a0, a1, a2 := uint64(privLine(0)), uint64(privLine(1)), uint64(privLine(2))
	if !slices.Equal(tx.Read, []uint64{a0, a1}) || !slices.Equal(tx.Write, []uint64{a1, a2}) {
		t.Fatalf("open transaction 1 has read set %#x and write set %#x, want [%#x %#x] and [%#x %#x]",
			tx.Read, tx.Write, a0, a1, a1, a2)
	}
	mem := s.Mem.AppendExact(nil)
	restore := func(read, write []uint64) (*System, error) {
		c := ck
		c.Txs = map[uint64]TxCkpt{1: {Read: read, Write: write, SpecAccesses: tx.SpecAccesses, Begun: tx.Begun, BeginAt: tx.BeginAt}}
		r := newSys()
		if err := r.Mem.RestoreExact(mem); err != nil {
			t.Fatalf("restoring the memory: %v", err)
		}
		return r, r.RestoreCkpt(c)
	}

	r, err := restore(tx.Read, tx.Write)
	if err != nil {
		t.Fatalf("restoring the captured checkpoint: %v", err)
	}
	r.Run([]Program{func(e *Env) { e.Commit(1) }})
	if st := r.Stats(); st.ReadSetBytes != 2*memsys.LineSize || st.WriteSetBytes != 2*memsys.LineSize {
		t.Errorf("committing the restored transaction counted %d read and %d write bytes, want %d each",
			st.ReadSetBytes, st.WriteSetBytes, 2*memsys.LineSize)
	}

	for _, tc := range []struct {
		name        string
		read, write []uint64
		want        string
	}{
		{"duplicate read", []uint64{a0, a0, a1}, tx.Write, "read set: address 0x40000 follows 0x40000"},
		{"descending read", []uint64{a1, a0}, tx.Write, "read set: address 0x40000 follows 0x41000"},
		{"duplicate write", tx.Read, []uint64{a1, a2, a2}, "write set: address 0x42000 follows 0x42000"},
		{"unaligned write", tx.Read, []uint64{a1, a2 + 8}, "write set: address 0x42008 is not line-aligned"},
	} {
		if _, err := restore(tc.read, tc.write); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
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
