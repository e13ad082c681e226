package hmtx

import (
	"fmt"
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/memsys"
	"hmtx/internal/paradigm"
)

// listLoop is the Figure 3 linked-list loop: stage 1 walks the list, stage 2
// applies a work function to each node and accumulates. All loop-carried
// state lives in simulated memory.
type listLoop struct {
	n        int
	max      uint64 // early-exit threshold on node values; 0 = never
	workCost int64
	conflict bool // stage 2 writes a cell stage 1 reads: forces misspeculation
}

const (
	llListBase = memsys.Addr(0x100000) // node i at llListBase + i*64: [0]=value, [+8]=next
	llHead     = memsys.Addr(0x700)    // recurrence: pointer to current node
	llProduced = memsys.Addr(0x800)    // producedNode (Figure 3)
	llSum      = memsys.Addr(0x900)    // accumulator written by stage 2
	llShared   = memsys.Addr(0xA00)    // cell read by stage 1, written by stage 2 when conflict
)

func (l *listLoop) Name() string { return "listloop" }
func (l *listLoop) Iters() int   { return l.n }

func (l *listLoop) Setup(h *memsys.Hierarchy) {
	for i := 0; i < l.n; i++ {
		node := llListBase + memsys.Addr(i)*memsys.LineSize
		h.PokeWord(node, uint64(i+1))
		next := node + memsys.LineSize
		if i == l.n-1 {
			next = 0
		}
		h.PokeWord(node+8, next)
	}
	h.PokeWord(llHead, uint64(llListBase))
}

func (l *listLoop) Stage1(e *engine.Env, it int) bool {
	node := e.Load(llHead)
	e.Store(llProduced, node)
	if l.conflict {
		e.Load(llShared) // marked by this VID; a later stage-2 write conflicts
	}
	next := e.Load(memsys.Addr(node) + 8)
	e.Store(llHead, next)
	e.Branch(1, next != 0)
	return next != 0
}

func (l *listLoop) Stage2(e *engine.Env, it int) bool {
	node := e.Load(llProduced)
	val := e.Load(memsys.Addr(node))
	e.Compute(l.workCost)
	sum := e.Load(llSum)
	e.Store(llSum, sum+val)
	if l.conflict && it == 3 {
		e.Store(llShared, 99)
	}
	e.Branch(2, l.max != 0 && val > l.max)
	return l.max != 0 && val > l.max
}

func runBoth(t *testing.T, loop *listLoop, kind paradigm.Kind, cores int) (seqCycles int64, out Outcome, mem *memsys.Hierarchy) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = cores

	seqSys := engine.New(cfg)
	loop.Setup(seqSys.Mem)
	seqCycles = paradigm.RunSequential(seqSys, loop)
	wantSum := seqSys.Mem.PeekWord(llSum)
	wantHead := seqSys.Mem.PeekWord(llHead)

	parSys := engine.New(cfg)
	loop.Setup(parSys.Mem)
	out = Run(parSys, loop, kind, cores)

	if got := parSys.Mem.PeekWord(llSum); got != wantSum {
		t.Fatalf("%v sum = %d, want %d (sequential)", kind, got, wantSum)
	}
	if got := parSys.Mem.PeekWord(llHead); got != wantHead {
		t.Fatalf("%v head = %d, want %d (sequential)", kind, got, wantHead)
	}
	return seqCycles, out, parSys.Mem
}

func TestDSWPMatchesSequential(t *testing.T) {
	loop := &listLoop{n: 50, workCost: 500}
	seq, out, _ := runBoth(t, loop, paradigm.DSWP, 4)
	if out.Aborts != 0 {
		t.Fatalf("unexpected aborts: %d", out.Aborts)
	}
	if out.Iterations != 50 {
		t.Fatalf("iterations = %d, want 50", out.Iterations)
	}
	if out.Cycles >= seq {
		t.Fatalf("DSWP (%d cycles) not faster than sequential (%d)", out.Cycles, seq)
	}
}

func TestPSDSWPScalesBeyondDSWP(t *testing.T) {
	loop := &listLoop{n: 60, workCost: 3000}
	_, dswp, _ := runBoth(t, loop, paradigm.DSWP, 4)
	_, ps, _ := runBoth(t, loop, paradigm.PSDSWP, 4)
	if ps.Cycles >= dswp.Cycles {
		t.Fatalf("PS-DSWP (%d) not faster than DSWP (%d) on work-heavy loop", ps.Cycles, dswp.Cycles)
	}
}

func TestDOACROSSMatchesSequential(t *testing.T) {
	loop := &listLoop{n: 40, workCost: 800}
	_, out, _ := runBoth(t, loop, paradigm.DOACROSS, 4)
	if out.Iterations != 40 {
		t.Fatalf("iterations = %d, want 40", out.Iterations)
	}
}

// doallLoop is an independent-iteration loop (052.alvinn style).
type doallLoop struct{ n int }

const (
	daIn  = memsys.Addr(0x200000)
	daOut = memsys.Addr(0x300000)
)

func (l *doallLoop) Name() string { return "doall" }
func (l *doallLoop) Iters() int   { return l.n }
func (l *doallLoop) Setup(h *memsys.Hierarchy) {
	for i := 0; i < l.n; i++ {
		h.PokeWord(daIn+memsys.Addr(i)*memsys.LineSize, uint64(i)*3)
	}
}
func (l *doallLoop) Stage1(e *engine.Env, it int) bool { return it+1 < l.n }
func (l *doallLoop) Stage2(e *engine.Env, it int) bool {
	v := e.Load(daIn + memsys.Addr(it)*memsys.LineSize)
	e.Compute(400)
	e.Store(daOut+memsys.Addr(it)*memsys.LineSize, v*v)
	return false
}

// epochLoop wraps a loop and records every stage that ran outside a
// transaction: each stage first loads a line, which counts as a speculative
// access only inside one.
type epochLoop struct {
	paradigm.Loop
	outside []string
}

func (l *epochLoop) Stage1(e *engine.Env, it int) bool {
	l.check(e, "Stage1", it)
	return l.Loop.Stage1(e, it)
}

func (l *epochLoop) Stage2(e *engine.Env, it int) bool {
	l.check(e, "Stage2", it)
	return l.Loop.Stage2(e, it)
}

func (l *epochLoop) check(e *engine.Env, stage string, it int) {
	before := e.SpecAccessCount()
	e.Load(daIn + memsys.Addr(it)*memsys.LineSize)
	if e.SpecAccessCount() == before {
		l.outside = append(l.outside, fmt.Sprintf("%s(%d)", stage, it))
	}
}

// TestStagesRunInsideTheirTransaction: every paradigm runs both stages of an
// iteration inside the iteration's transaction.
func TestStagesRunInsideTheirTransaction(t *testing.T) {
	for _, k := range []paradigm.Kind{paradigm.DOALL, paradigm.DOACROSS, paradigm.DSWP, paradigm.PSDSWP} {
		loop := &epochLoop{Loop: &doallLoop{n: 16}}
		sys := engine.New(engine.DefaultConfig())
		loop.Setup(sys.Mem)
		Run(sys, loop, k, 4)
		if len(loop.outside) > 0 {
			t.Errorf("%v: stages ran outside their transaction: %v", k, loop.outside)
		}
	}
}

func TestDOALLMatchesSequentialAndSpeedsUp(t *testing.T) {
	cfg := engine.DefaultConfig()
	loop := &doallLoop{n: 64}

	seqSys := engine.New(cfg)
	loop.Setup(seqSys.Mem)
	seq := paradigm.RunSequential(seqSys, loop)

	parSys := engine.New(cfg)
	loop.Setup(parSys.Mem)
	out := Run(parSys, loop, paradigm.DOALL, 4)
	if out.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0", out.Aborts)
	}
	for i := 0; i < loop.n; i++ {
		want := uint64(i) * 3 * uint64(i) * 3
		if got := parSys.Mem.PeekWord(daOut + memsys.Addr(i)*memsys.LineSize); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if out.Cycles >= seq {
		t.Fatalf("DOALL (%d) not faster than sequential (%d)", out.Cycles, seq)
	}
	if float64(seq)/float64(out.Cycles) < 2 {
		t.Fatalf("DOALL speedup %.2f, want >= 2 on 4 cores", float64(seq)/float64(out.Cycles))
	}
}

// exitLoop wraps a loop whose Stage2 takes the loop exit at iteration at.
type exitLoop struct {
	paradigm.Loop
	at int
}

func (l *exitLoop) Stage2(e *engine.Env, it int) bool {
	return l.Loop.Stage2(e, it) || it == l.at
}

// TestLoopExitStopsTheLoop: a Stage2 that takes the loop exit ends the loop
// at its own iteration, even when a later iteration is ready to commit
// while the exiting worker squashes the ones speculated past it.
func TestLoopExitStopsTheLoop(t *testing.T) {
	for _, k := range []paradigm.Kind{paradigm.DOALL, paradigm.DOACROSS, paradigm.DSWP, paradigm.PSDSWP} {
		loop := &exitLoop{Loop: &doallLoop{n: 32}, at: 10}
		seqSys := engine.New(engine.DefaultConfig())
		loop.Setup(seqSys.Mem)
		paradigm.RunSequential(seqSys, loop)

		sys := engine.New(engine.DefaultConfig())
		loop.Setup(sys.Mem)
		out := Run(sys, loop, k, 4)
		if !out.ExitedEarly || out.Iterations != loop.at+1 {
			t.Errorf("%v: ExitedEarly %t, Iterations %d; want true, %d", k, out.ExitedEarly, out.Iterations, loop.at+1)
		}
		for i := 0; i < 32; i++ {
			a := daOut + memsys.Addr(i)*memsys.LineSize
			if got, want := sys.Mem.PeekWord(a), seqSys.Mem.PeekWord(a); got != want {
				t.Errorf("%v: out[%d] = %d, want %d (sequential)", k, i, got, want)
			}
		}
	}
}

// TestEarlyExitSquashesOverSpeculation exercises the Figure 3 early-exit
// path: stage 2 finds w > MAX and squashes the iterations stage 1
// speculated past the exit in one abort, and recovery commits the exit
// iteration.
func TestEarlyExitSquashesOverSpeculation(t *testing.T) {
	loop := &listLoop{n: 50, max: 10, workCost: 2000}
	_, out, _ := runBoth(t, loop, paradigm.PSDSWP, 4)
	if !out.ExitedEarly {
		t.Fatal("loop should have exited early")
	}
	// Node values are 1..n; exit fires on the iteration with value 11.
	if out.Iterations != 11 {
		t.Fatalf("iterations = %d, want 11", out.Iterations)
	}
	if out.Aborts != 1 {
		t.Fatalf("aborts = %d, want exactly the early-exit squash", out.Aborts)
	}
}

// TestMisspeculationRecovery forces a genuine cross-iteration conflict and
// checks that the runtime rolls back, re-executes, and still produces the
// sequential result.
func TestMisspeculationRecovery(t *testing.T) {
	loop := &listLoop{n: 20, workCost: 1500, conflict: true}
	_, out, mem := runBoth(t, loop, paradigm.PSDSWP, 4)
	if out.Aborts == 0 {
		t.Fatal("expected at least one misspeculation abort")
	}
	if out.Iterations != 20 {
		t.Fatalf("iterations = %d, want 20", out.Iterations)
	}
	if got := mem.PeekWord(llShared); got != 99 {
		t.Fatalf("shared cell = %d, want 99", got)
	}
}

// TestLongLoopCrossesVIDResets runs enough iterations to exhaust the 6-bit
// VID space several times under a live pipeline.
func TestLongLoopCrossesVIDResets(t *testing.T) {
	loop := &listLoop{n: 200, workCost: 50}
	_, out, mem := runBoth(t, loop, paradigm.PSDSWP, 4)
	if out.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0", out.Aborts)
	}
	if out.Iterations != 200 {
		t.Fatalf("iterations = %d, want 200", out.Iterations)
	}
	// 200 iterations / 63 VIDs: at least 3 resets.
	sys := mem.Stats()
	if sys.VIDResets < 3 {
		t.Fatalf("VIDResets = %d, want >= 3", sys.VIDResets)
	}
}
