// Package paradigm defines the decomposition contract between workloads and
// the parallel execution paradigms of the paper's §2.1: a hot loop is split
// into a sequential recurrence stage (stage 1) and a work stage (stage 2),
// exactly as DSWP partitions it. The same decomposition serves every
// paradigm: sequential execution fuses the stages, DOALL ignores stage 1's
// recurrence, DOACROSS runs whole iterations on alternating cores, and
// DSWP/PS-DSWP pipeline the stages across threads (Figure 1).
package paradigm

import (
	"fmt"
	"strings"

	"hmtx/internal/engine"
	"hmtx/internal/memsys"
)

// Kind selects a thread-level parallelization technique (§2.1).
type Kind int

// The paradigms of Figure 1, plus the sequential baseline.
const (
	Sequential Kind = iota
	DOALL
	DOACROSS
	DSWP
	PSDSWP
)

var kindNames = [...]string{"Sequential", "DOALL", "DOACROSS", "DSWP", "PS-DSWP"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseParallel returns the parallel paradigm named name, ignoring case and
// '-': a checkpoint records String's "PS-DSWP", the hmtxsim flag takes
// "psdswp". Sequential is not a parallel paradigm and is rejected like any
// unknown name.
func ParseParallel(name string) (Kind, error) {
	fold := func(s string) string { return strings.ToLower(strings.ReplaceAll(s, "-", "")) }
	for k := DOALL; k <= PSDSWP; k++ {
		if fold(k.String()) == fold(name) {
			return k, nil
		}
	}
	return Sequential, fmt.Errorf("unknown paradigm %q", name)
}

// Loop is a speculatively parallelizable hot loop.
//
// All mutable loop state must live in simulated memory and be accessed
// through the Env: after a misspeculation abort, uncommitted versions roll
// back in the memory system and iterations re-execute, so host-side mutable
// state would go stale. Read-only host-side configuration is fine.
type Loop interface {
	// Name identifies the benchmark.
	Name() string

	// Setup populates simulated memory with the loop's data structures
	// (host-direct, before timing starts).
	Setup(h *memsys.Hierarchy)

	// Iters bounds the iteration count. Loops with data-dependent exits
	// (linked-list ends, early breaks) may finish sooner via Stage1's
	// cont or Stage2's exit.
	Iters() int

	// Stage1 executes the recurrence part of iteration it (0-based)
	// inside the current transaction: it advances loop-carried state and
	// publishes the iteration's input through versioned memory (the
	// producedNode pattern of Figure 3). It returns false if this is the
	// final iteration.
	Stage1(e *engine.Env, it int) (cont bool)

	// Stage2 executes the work part of iteration it. It returns true if
	// the loop must terminate after this iteration (an early exit that
	// was control-flow speculated away, as in Figure 3's w > MAX).
	Stage2(e *engine.Env, it int) (exit bool)
}

// RunSequential executes the loop non-speculatively on core 0 and returns
// the cycle count. It is the baseline every speedup in the evaluation is
// measured against.
func RunSequential(sys *engine.System, loop Loop) int64 {
	res := sys.Run([]engine.Program{func(e *engine.Env) {
		for it := 0; it < loop.Iters(); it++ {
			cont := loop.Stage1(e, it)
			exit := loop.Stage2(e, it)
			if exit || !cont {
				return
			}
		}
	}})
	if res.Aborted {
		panic(fmt.Sprintf("paradigm: sequential run aborted: %s", res.Cause))
	}
	return res.Cycles
}
