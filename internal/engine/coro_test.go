package engine

import (
	"runtime"
	"testing"
	"time"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// settledGoroutines waits for goroutines that are already exiting (domain
// workers after their start channels close) and returns the count. A
// suspended program coroutine never exits on its own, so a leak still shows.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; n > want && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func requireNoLeak(t *testing.T, before int) {
	t.Helper()
	if n := settledGoroutines(before); n != before {
		t.Fatalf("goroutines: %d before Run, %d after", before, n)
	}
}

func computeProgram(n int) Program {
	return func(e *Env) {
		for i := 0; i < n; i++ {
			e.Compute(1)
		}
	}
}

// TestRunLeavesNoCoroutines pins that Run stops every program coroutine: a
// program that yielded reqDone stays suspended until stopped, so a missing
// stop leaks one goroutine per core per run.
func TestRunLeavesNoCoroutines(t *testing.T) {
	t.Run("completed", func(t *testing.T) {
		s := newSys()
		before := runtime.NumGoroutine()
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
		before := runtime.NumGoroutine()
		res := s.Run(progs)
		if !res.Aborted || res.LastCommitted != 0 {
			t.Fatalf("want an explicit abort with nothing committed, got %+v", res)
		}
		if parkedAtAbort != 3 {
			t.Fatalf("abort issued with %d cores parked on commit, want 3", parkedAtAbort)
		}
		requireNoLeak(t, before)
	})

	t.Run("domains-2", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Domains = 2
		s := New(cfg)
		before := runtime.NumGoroutine()
		s.Run([]Program{computeProgram(100), computeProgram(100), computeProgram(100), computeProgram(100)})
		if s.Rounds() == 0 {
			t.Fatal("parallel scheduler did not engage")
		}
		requireNoLeak(t, before)
	})
}

// TestProgramPanicSurfacesFromRun checks that a program panicking with its
// own value re-raises that value from Run on the caller's goroutine — on
// the serial scheduler and from inside a parallel round — and that no
// coroutine outlives the call.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	for _, domains := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Domains = domains
		s := New(cfg)
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
		before := runtime.NumGoroutine()
		got := func() (r any) {
			defer func() { r = recover() }()
			s.Run(progs)
			return nil
		}()
		if got != "program bug" {
			t.Fatalf("domains=%d: recovered %v, want the program's panic value", domains, got)
		}
		if domains > 1 && s.Rounds() == 0 {
			t.Fatalf("domains=%d: parallel scheduler did not engage", domains)
		}
		requireNoLeak(t, before)
	}
}

// TestHandoffAllocFree pins that handing an operation to the scheduler and
// back allocates nothing: a run's allocations do not depend on its length.
func TestHandoffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; see race_enabled_test.go")
	}
	allocs := func(n int) float64 {
		s := newSys()
		progs := []Program{computeProgram(n)}
		return testing.AllocsPerRun(5, func() { s.Run(progs) })
	}
	if short, long := allocs(1000), allocs(10000); short != long {
		t.Fatalf("allocations per Run: %v at 1k ops, %v at 10k ops; the handoff allocates", short, long)
	}
}
