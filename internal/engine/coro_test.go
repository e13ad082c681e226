package engine

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// programCoroutines counts the goroutines whose stack holds the coroutine
// body that Run hands to iter.Pull: one per program, running or suspended.
// Other goroutines (the testing package's, the race runtime's) start and
// exit on their own schedule, so a bare runtime.NumGoroutine is not exact.
func programCoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("\nhmtx/internal/engine.(*System).Run.func")) {
			n++
		}
	}
	return n
}

// requireNoLeak fails unless the program coroutine count is back to before.
// Run returns only after stopping every program coroutine, so the count is
// exact on return; no wait is needed.
func requireNoLeak(t *testing.T, before int) {
	t.Helper()
	if n := programCoroutines(); n != before {
		t.Fatalf("program coroutines: %d before Run, %d after", before, n)
	}
}

// onInlinePath reports whether the caller runs under Env.rpc: on a program's
// coroutine, which handles its own request inline, rather than on the
// scheduler loop.
func onInlinePath() bool {
	buf := make([]byte, 1<<14)
	buf = buf[:runtime.Stack(buf, false)]
	return bytes.Contains(buf, []byte("\nhmtx/internal/engine.(*Env).rpc("))
}

func computeProgram(n int) Program {
	return func(e *Env) {
		for i := 0; i < n; i++ {
			e.Compute(1)
		}
	}
}

// strideProgram computes n steps of stride cycles each.
func strideProgram(stride int64, n int) Program {
	return func(e *Env) {
		for k := 0; k < n; k++ {
			e.Compute(stride)
		}
	}
}

// TestRunLeavesNoCoroutines pins that Run stops every program coroutine: a
// program that yielded reqDone stays suspended until stopped, so a missing
// stop leaks one goroutine per core per run.
func TestRunLeavesNoCoroutines(t *testing.T) {
	t.Run("completed", func(t *testing.T) {
		s := newSys()
		before := programCoroutines()
		res := s.Run([]Program{computeProgram(10), computeProgram(20), computeProgram(30), computeProgram(40)})
		if res.Aborted {
			t.Fatalf("unexpected abort: %s", res.Cause)
		}
		requireNoLeak(t, before)
	})

	t.Run("explicit-abort-parked-on-commit", func(t *testing.T) {
		s := newSys()
		committer := func(seq vid.Seq) Program {
			return func(e *Env) {
				e.Begin(seq)
				e.Store(memsys.Addr(0x1000*uint64(seq)), uint64(seq))
				e.Commit(seq) // parks: seq 1 never commits
			}
		}
		progs := []Program{
			func(e *Env) {
				e.Begin(1)
				e.Compute(10000)
				e.Abort(1)
			},
			committer(2), committer(3), committer(4),
		}
		// Every commit must be issued, and so parked, before the abort.
		commits, parkedAtAbort := 0, -1
		s.SetDebugHook(func(ev DebugEvent) {
			switch ev.Op {
			case "commit":
				commits++
			case "abort":
				parkedAtAbort = commits
			}
		})
		before := programCoroutines()
		res := s.Run(progs)
		if !res.Aborted || res.LastCommitted != 0 {
			t.Fatalf("want an explicit abort with nothing committed, got %+v", res)
		}
		if parkedAtAbort != 3 {
			t.Fatalf("abort issued with %d cores parked on commit, want 3", parkedAtAbort)
		}
		requireNoLeak(t, before)
	})
}

// TestProgramPanicSurfacesFromRun checks that a program panicking with its
// own value re-raises that value from Run on the caller's goroutine, and
// that no coroutine outlives the call.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	s := newSys()
	progs := []Program{
		computeProgram(50),
		func(e *Env) {
			for i := 0; i < 10; i++ {
				e.Compute(1)
			}
			panic("program bug")
		},
		computeProgram(50),
		computeProgram(50),
	}
	before := programCoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(progs)
		return nil
	}()
	if got != "program bug" {
		t.Fatalf("recovered %v, want the program's panic value", got)
	}
	requireNoLeak(t, before)
}

// TestInlinePanicSurfacesFromRun: an engine panic raised while a program
// handles its own request inline unwinds the program's coroutine, re-raises
// from Run on the caller's goroutine, and leaks no coroutine. The load yields
// (no core is at the run queue's root before the scheduler loop starts); the
// Compute after it runs inline and moves the clock past the run queue's key
// range, so re-keying the core for the next Compute trips runKey's panic on
// the coroutine.
func TestInlinePanicSurfacesFromRun(t *testing.T) {
	s := newSys()
	var inline []bool
	s.SetDebugHook(func(DebugEvent) { inline = append(inline, onInlinePath()) })
	before := programCoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run([]Program{func(e *Env) {
			e.Load(0x1000)
			e.Compute(1 << 57)
			e.Compute(1)
		}})
		return nil
	}()
	if got != "engine: core clock outside the run queue's key range" {
		t.Fatalf("recovered %v, want runKey's range panic", got)
	}
	if len(inline) != 2 || inline[0] || !inline[1] {
		t.Fatalf("inline path per handled request %v, want [false true]", inline)
	}
	requireNoLeak(t, before)
}

// TestFusedPanicSurfacesFromRun: an engine panic raised while the scheduler
// steps a buffered operation surfaces from Run, and leaks no coroutine.
// Programs start before the scheduler loop, where no core is at the root, so
// the three Computes are buffered and the program runs on to its load. The
// second moves the clock past the run queue's key range, and re-keying the
// core after it panics in the scheduler loop.
func TestFusedPanicSurfacesFromRun(t *testing.T) {
	s := newSys()
	var ops []string
	s.SetDebugHook(func(ev DebugEvent) {
		if onInlinePath() {
			t.Errorf("%s handled inline, want every step on the scheduler loop", ev.Op)
		}
		ops = append(ops, ev.Op)
	})
	pastComputes := false
	before := programCoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run([]Program{func(e *Env) {
			e.Compute(1)
			e.Compute(1 << 57)
			e.Compute(1)
			pastComputes = true
			e.Load(0x1000)
		}})
		return nil
	}()
	if got != "engine: core clock outside the run queue's key range" {
		t.Fatalf("recovered %v, want runKey's range panic", got)
	}
	if !pastComputes || len(ops) != 2 || ops[0] != "compute" || ops[1] != "compute" {
		t.Fatalf("program ran past its Computes %v, steps %v; want it past them and two compute steps", pastComputes, ops)
	}
	requireNoLeak(t, before)
}

// TestFusedAbortUnwinds: when another core's conflict aborts the run while
// this core holds buffered operations, the scheduler steps just the oldest
// of them, which meets the abort, drops the rest, and unwinds the program at
// the load it is suspended at: deferred code runs, the load never returns.
// Cores 0 and 1 are the flow-dependence pair of conflictingPair.
func TestFusedAbortUnwinds(t *testing.T) {
	s := newSys()
	var ops []string // core 2's steps from the aborting store on
	held := 0
	s.SetDebugHook(func(ev DebugEvent) {
		switch {
		case ev.Core == 1 && ev.Op == "store":
			held = buffered(s.cores[2])
			ops = []string{}
		case ev.Core == 2 && ops != nil:
			ops = append(ops, ev.Op)
		}
	})
	unwound, issued, returned := false, -1, -1
	progs := append(conflictingPair(), func(e *Env) {
		defer func() { unwound = true }()
		for k := 0; k < 2000; k++ {
			e.Compute(3)
			e.Branch(7, k%2 == 0)
			e.Compute(4)
			issued = k
			e.Load(privLine(2))
			returned = k
		}
	})
	before := programCoroutines()
	res := s.Run(progs)
	if !res.Aborted || s.Stats().AbortsConflict != 1 {
		t.Fatalf("want one conflict abort, got %+v", res)
	}
	if held < 2 {
		t.Fatalf("core 2 held %d buffered operations at the abort, want at least 2", held)
	}
	if len(ops) != 2 || (ops[0] != "compute" && ops[0] != "branch") || ops[1] != "done" {
		t.Fatalf("core 2 steps after the abort %v, want one buffered operation and done", ops)
	}
	if !unwound || issued != returned+1 {
		t.Fatalf("program unwound %v, issued load %d, last returned %d; want it unwound at the issued load", unwound, issued, returned)
	}
	requireNoLeak(t, before)
}

// TestFusedAbortAfterDone: when another core's conflict abort lands on a
// buffered operation of a core whose program already finished, the
// scheduler steps that one operation, drops the rest and steps the core's
// reqDone next; the finished program is never resumed. Core 2's load misses
// and leaves its clock past core 1's, so it buffers its last two Computes
// behind its reqDone while core 1's store, handled inline, aborts the run.
// The hook bounds the run: resuming the finished coroutine would step its
// zero request, a load, without end.
func TestFusedAbortAfterDone(t *testing.T) {
	s := newSys()
	var ops []string // core 2's steps from the aborting store on
	held, queued, events := 0, "", 0
	s.SetDebugHook(func(ev DebugEvent) {
		if events++; events > 1000 {
			panic("engine steps without end")
		}
		switch {
		case ev.Core == 1 && ev.Op == "store":
			c := s.cores[2]
			held, queued = buffered(c), c.ops[c.nOps-1].kind.String()
			ops = []string{}
		case ev.Core == 2 && ops != nil:
			ops = append(ops, ev.Op)
		}
	})
	progs := append(conflictingPair(), func(e *Env) {
		e.Compute(4990)
		e.Load(privLine(2))
		e.Compute(1)
		e.Compute(1)
	})
	before := programCoroutines()
	var res RunResult
	if p := func() (p any) {
		defer func() { p = recover() }()
		res = s.Run(progs)
		return nil
	}(); p != nil {
		t.Fatalf("Run panicked: %v", p)
	}
	if !res.Aborted || s.Stats().AbortsConflict != 1 {
		t.Fatalf("want one conflict abort, got %+v", res)
	}
	if held != 2 || queued != "done" {
		t.Fatalf("core 2 held %d buffered operations before %q at the abort, want 2 before done", held, queued)
	}
	if len(ops) != 2 || ops[0] != "compute" || ops[1] != "done" {
		t.Fatalf("core 2 steps after the abort %v, want one compute and done", ops)
	}
	requireNoLeak(t, before)
}

// TestCoreSizeClass pins the sizes that keep a core in Go's 352-byte
// allocation size class: every System allocates one core per simulated
// core, so a core that outgrows the class raises manycore's alloc_mb. The
// request queue is fuseCap+1 requests of 24 bytes, the 120 bytes the
// pending request and the op-fusion buffer took before they were one queue.
func TestCoreSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n > 24 {
		t.Errorf("request is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(core{}); n > 352 {
		t.Errorf("core is %d bytes, want at most 352", n)
	}
}

// TestInlineConflictAbortUnwinds: a store handled inline that violates a
// flow dependence (§4.3) aborts the run, unwinds its own program at the
// store — deferred code runs, the code after it does not — and Run reports
// the conflict. Core 0's later transaction reads the line and then computes
// far ahead, so core 1 stays at the root and handles its store inline.
func TestInlineConflictAbortUnwinds(t *testing.T) {
	s := newSys()
	const line = memsys.Addr(0x1000)
	storeInline := false
	s.SetDebugHook(func(ev DebugEvent) {
		if ev.Core == 1 && ev.Op == "store" {
			storeInline = onInlinePath()
		}
	})
	unwound, pastStore := false, false
	progs := []Program{
		func(e *Env) {
			e.Begin(2)
			e.Load(line)
			e.Compute(100000)
			e.Commit(2)
		},
		func(e *Env) {
			defer func() { unwound = true }()
			for i := 0; i < 5; i++ {
				e.Compute(10)
			}
			e.Begin(1)
			e.Store(line, 7)
			pastStore = true
			e.Commit(1)
		},
	}
	before := programCoroutines()
	res := s.Run(progs)
	if !res.Aborted || s.Stats().AbortsConflict != 1 || res.LastCommitted != 0 {
		t.Fatalf("want one conflict abort with nothing committed, got %+v, %d conflict aborts", res, s.Stats().AbortsConflict)
	}
	if !storeInline {
		t.Fatal("core 1's store was not handled inline")
	}
	if !unwound || pastStore {
		t.Fatalf("program unwound %v, ran past the store %v; want it unwound at the store", unwound, pastStore)
	}
	requireNoLeak(t, before)
}

// commitRelay is core's program in a relay of two cores that commit the
// sequence numbers after the run's first in turn, n each. Core 1 computes
// before each of its commits, so core 0, whose commit comes next, always
// arrives first and parks until core 1's commit wakes it.
func commitRelay(core, n int) Program {
	return func(e *Env) {
		base := e.sys.LastCommitted()
		for k := 0; k < n; k++ {
			if core == 1 {
				e.Compute(10)
				e.Commit(base + vid.Seq(2*k+1))
			} else {
				e.Commit(base + vid.Seq(2*k+2))
			}
		}
	}
}

// txRelay is commitRelay with a transaction around each commit: the core
// begins the sequence number, stores to and loads its own line, and commits.
func txRelay(core, n int) Program {
	return func(e *Env) {
		base := e.sys.LastCommitted()
		for k := 0; k < n; k++ {
			seq := base + vid.Seq(2*k+2)
			if core == 1 {
				e.Compute(10)
				seq = base + vid.Seq(2*k+1)
			}
			e.Begin(seq)
			e.Store(privLine(core), uint64(k))
			e.Load(privLine(core))
			e.Commit(seq)
		}
	}
}

// TestHandoffAllocFree pins that handing an operation to the scheduler and
// back, handling it inline, parking and waking a core, and keeping the run
// queue ordered, allocate nothing: a run's allocations do not depend on its
// length. One core runs ahead on every operation; of two cores with 1- and
// 3-cycle steps, core 0 handles two steps inline and yields on the third; 64
// cores in lockstep always yield; in a commit relay one core parks for its
// turn and wakes on the other's commits, so the run queue's pushes grow with
// the commits. In the transaction relay each commit ends a begin, a store
// and a load: a footprint, once warm, is reused without allocating. Each
// relay's six runs of 2×20 commits fit one epoch of 8-bit VIDs.
func TestHandoffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; see race_enabled_test.go")
	}
	for _, tc := range []struct {
		cores, short, long int
		prog               func(core, n int) Program
	}{
		{1, 1000, 10000, func(_, n int) Program { return computeProgram(n) }},
		{2, 1000, 10000, func(core, n int) Program { return strideProgram(int64(2*core+1), n) }},
		{64, 200, 2000, func(_, n int) Program { return computeProgram(n) }},
		{2, 4, 20, commitRelay},
		{2, 4, 20, txRelay},
	} {
		allocs := func(n int) float64 {
			cfg := DefaultConfig()
			cfg.Mem.Cores = tc.cores
			cfg.Mem.VIDSpace = vid.Space{Bits: 8}
			s := New(cfg)
			progs := make([]Program, tc.cores)
			for i := range progs {
				progs[i] = tc.prog(i, n)
			}
			return testing.AllocsPerRun(5, func() { s.Run(progs) })
		}
		if short, long := allocs(tc.short), allocs(tc.long); short != long {
			t.Errorf("%d cores: allocations per Run: %v at %d ops per core, %v at %d; the dispatch allocates",
				tc.cores, short, tc.short, long, tc.long)
		}
	}
}

// TestInstrumentedRunAllocs pins the allocations of one transaction-relay
// Run with observed's instruments attached (profiler, series, conflict
// recorder, latency histograms) to the count measured before the hook folded
// one obs.Event stream. Every decision point then passes through Hook.Emit;
// an event that escaped to the heap, or an emit site that built a Note
// string, would add allocations per event.
func TestInstrumentedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; see race_enabled_test.go")
	}
	cfg := DefaultConfig()
	cfg.Mem.Cores = 2
	cfg.Mem.VIDSpace = vid.Space{Bits: 8}
	s := New(cfg)
	s.SetProf(prof.New())
	s.SetSeries(metrics.NewSampler(0))
	s.SetConflicts(metrics.NewRecorder(0))
	s.SetLatHists(metrics.NewLatHists())
	progs := []Program{readRelay(0, 20), readRelay(1, 20)}
	if got := testing.AllocsPerRun(5, func() { s.Run(progs) }); got != 38 {
		t.Errorf("instrumented Run allocates %v times, want 38", got)
	}
}

// readRelay is txRelay with a speculative load of one of four shared lines
// first in each transaction, so its lines change protocol state.
func readRelay(core, n int) Program {
	return func(e *Env) {
		base := e.sys.LastCommitted()
		for k := 0; k < n; k++ {
			seq := base + vid.Seq(2*k+2)
			if core == 1 {
				e.Compute(10)
				seq = base + vid.Seq(2*k+1)
			}
			e.Begin(seq)
			e.Load(privLine(2 + k%4))
			e.Store(privLine(core), uint64(k))
			e.Load(privLine(core))
			e.Commit(seq)
		}
	}
}

// TestDomainsFieldIgnored pins the contract of the deprecated Config.Domains
// field: a 64-core run at Domains 2 gives the same RunResult, engine Stats
// and memsys Stats as Domains 1, and runs exactly one program coroutine per
// core.
func TestDomainsFieldIgnored(t *testing.T) {
	const cores = 64
	run := func(domains int) (RunResult, Stats, memsys.Stats, int) {
		cfg := DefaultConfig()
		cfg.Mem.Cores = cores
		cfg.Mem.VIDSpace = vid.Space{Bits: 8}
		cfg.Domains = domains
		s := New(cfg)
		before := programCoroutines()
		peak := 0
		progs := make([]Program, cores)
		for i := range progs {
			i := i
			progs[i] = func(e *Env) {
				base := memsys.Addr(0x100000 + i*0x1000)
				for r := 0; r < 3; r++ {
					seq := vid.Seq(r*cores + i + 1)
					e.Begin(seq)
					e.Store(base, uint64(r))
					for k := 0; k < 20; k++ {
						e.Load(base)
						e.Compute(int64(2 + k%7))
						e.Branch(uint64(i), k%3 != 0)
					}
					peak = max(peak, programCoroutines()-before)
					e.Commit(seq)
				}
			}
		}
		res := s.Run(progs)
		requireNoLeak(t, before)
		return res, *s.Stats(), *s.Mem.Stats(), peak
	}
	res1, eng1, mem1, peak1 := run(1)
	res2, eng2, mem2, peak2 := run(2)
	if res1.Aborted || eng1.Mispredicts == 0 {
		t.Fatalf("workload must commit and mispredict: %+v, %d mispredicts", res1, eng1.Mispredicts)
	}
	if res2 != res1 {
		t.Errorf("RunResult: Domains 2 %+v, Domains 1 %+v", res2, res1)
	}
	if eng2 != eng1 {
		t.Errorf("engine Stats: Domains 2 %+v, Domains 1 %+v", eng2, eng1)
	}
	if mem2 != mem1 {
		t.Errorf("memsys Stats: Domains 2 %+v, Domains 1 %+v", mem2, mem1)
	}
	if peak1 != cores || peak2 != cores {
		t.Errorf("program coroutines during the run: %d at Domains 1, %d at Domains 2; want %d", peak1, peak2, cores)
	}
}
