package paradigm

import (
	"fmt"
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/memsys"
)

type countLoop struct {
	n      int
	early  int // stage 2 exits after this iteration (0 = never)
	s1, s2 []int
}

func (l *countLoop) Name() string              { return "count" }
func (l *countLoop) Iters() int                { return l.n }
func (l *countLoop) Setup(h *memsys.Hierarchy) {}
func (l *countLoop) Stage1(e *engine.Env, it int) bool {
	l.s1 = append(l.s1, it)
	return it+1 < l.n
}
func (l *countLoop) Stage2(e *engine.Env, it int) bool {
	l.s2 = append(l.s2, it)
	e.Store(0x1000+memsys.Addr(it)*memsys.LineSize, uint64(it))
	return l.early != 0 && it+1 >= l.early
}

func TestRunSequentialOrdering(t *testing.T) {
	sys := engine.New(engine.DefaultConfig())
	loop := &countLoop{n: 5}
	RunSequential(sys, loop)
	if len(loop.s1) != 5 || len(loop.s2) != 5 {
		t.Fatalf("stage calls: %v / %v, want 5 each in order", loop.s1, loop.s2)
	}
	for i := 0; i < 5; i++ {
		if loop.s1[i] != i || loop.s2[i] != i {
			t.Fatalf("iteration order broken: %v / %v", loop.s1, loop.s2)
		}
	}
}

func TestRunSequentialEarlyExit(t *testing.T) {
	sys := engine.New(engine.DefaultConfig())
	loop := &countLoop{n: 10, early: 4}
	RunSequential(sys, loop)
	if len(loop.s2) != 4 {
		t.Fatalf("stage 2 ran %d times, want 4 (early exit)", len(loop.s2))
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Sequential: "Sequential",
		DOALL:      "DOALL",
		DOACROSS:   "DOACROSS",
		DSWP:       "DSWP",
		PSDSWP:     "PS-DSWP",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if (Kind(99)).String() != "Kind(99)" {
		t.Errorf("unknown kind formatting broken")
	}
}

func TestParseParallel(t *testing.T) {
	for _, k := range []Kind{DOALL, DOACROSS, DSWP, PSDSWP} {
		got, err := ParseParallel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseParallel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"Sequential", "Kind(99)", "doall", ""} {
		if _, err := ParseParallel(name); err == nil || err.Error() != fmt.Sprintf("unknown paradigm %q", name) {
			t.Errorf("ParseParallel(%q): err %v, want unknown paradigm", name, err)
		}
	}
}
