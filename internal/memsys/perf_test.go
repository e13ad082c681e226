package memsys

import (
	"math/rand"
	"testing"

	"hmtx/internal/vid"
)

// TestHotPathZeroAllocs pins the allocation-free contract of DESIGN.md §11:
// the L1-hit access paths — non-speculative load hit, speculative load hit,
// and a speculative store re-writing its own version — must not allocate.
// BenchmarkL1HitLoad reports the same property as allocs/op; this test makes
// it a hard failure instead of a number someone has to read.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := newBenchH(2)
	h.PokeWord(addrA, 7)
	h.Load(0, addrA, vid.NonSpec)
	if n := testing.AllocsPerRun(200, func() {
		h.Load(0, addrA, vid.NonSpec)
	}); n != 0 {
		t.Errorf("non-speculative L1 hit load: %v allocs/op, want 0", n)
	}

	h2 := newBenchH(2)
	h2.PokeWord(addrA, 7)
	h2.Load(0, addrA, 1)
	if n := testing.AllocsPerRun(200, func() {
		h2.Load(0, addrA, 1)
	}); n != 0 {
		t.Errorf("speculative L1 hit load: %v allocs/op, want 0", n)
	}

	h3 := newBenchH(2)
	h3.Store(0, addrA, 1, 1)
	val := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		val++
		h3.Store(0, addrA, val, 1)
	}); n != 0 {
		t.Errorf("speculative store re-write hit: %v allocs/op, want 0", n)
	}

	// The miss paths that route through install must not allocate either:
	// install takes its Line by value, and nothing on the non-panic path may
	// force that 112-byte parameter to escape (a bus-snooped migrating store
	// and the settle-on-access path both call it every iteration).
	h4 := newBenchH(2)
	h4.Store(0, addrA, 1, vid.NonSpec)
	iter := 0
	if n := testing.AllocsPerRun(200, func() {
		iter++
		h4.Store(iter&1, addrA, uint64(iter), vid.NonSpec)
	}); n != 0 {
		t.Errorf("bus-snooped migrating store: %v allocs/op, want 0", n)
	}

	h5 := newBenchH(2)
	v := vid.V(0)
	if n := testing.AllocsPerRun(200, func() {
		v++
		h5.Store(0, addrA, uint64(v), v)
		h5.Commit(v)
		h5.Load(0, addrA, vid.NonSpec)
	}); n != 0 {
		t.Errorf("settle-after-commit access: %v allocs/op, want 0", n)
	}

	// A speculative load of a line a peer L1 holds non-speculatively
	// migrates it and marks it in place, through a pointer to the moved
	// Line: that pointer must not escape either.
	h6 := newBenchH(2)
	v = 0
	if n := testing.AllocsPerRun(200, func() {
		v++
		h6.Store(0, addrA, uint64(v), vid.NonSpec)
		h6.Load(1, addrA, v)
		h6.Commit(v)
	}); n != 0 {
		t.Errorf("speculative load migrating a peer's line: %v allocs/op, want 0", n)
	}
}

// TestSnoopFilterPresence exercises the snoop-filter maintenance rules
// directly: bits are set when lines enter caches, cleared when the last copy
// leaves, and the conservative-superset invariant (a clear bit proves
// absence) holds across migrations, aborts, and evictions. MOESI-San's
// invariant 8 checks the same property after every operation, so the
// scenarios run with Sanitize on.
func TestSnoopFilterPresence(t *testing.T) {
	h := newTestH(2)
	la := LineAddr(addrA)

	// A load on core 0 pulls the line into L1.0 and the shared L2.
	h.PokeWord(addrA, 7)
	mustLoad(t, h, 0, addrA, vid.NonSpec)
	mask := h.holders(la)
	if !mask.has(h.l1s[0].id) {
		t.Fatalf("after core-0 load: L1.0 presence bit clear (mask %v)", mask)
	}
	if mask.has(h.l1s[1].id) {
		t.Fatalf("after core-0 load: L1.1 presence bit set (mask %v)", mask)
	}

	// A store on core 1 invalidates core 0's copy; the filter may keep the
	// stale bit only until the next sweep proves the cache empty, but the
	// core-1 bit must be set immediately.
	mustStore(t, h, 1, addrA, 9, vid.NonSpec)
	if mask = h.holders(la); !mask.has(h.l1s[1].id) {
		t.Fatalf("after core-1 store: L1.1 presence bit clear (mask %v)", mask)
	}

	// The superset invariant: every valid copy is covered by a set bit.
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after migration: %v", err)
	}

	// Aborting clears speculative state; presence must still cover any
	// surviving committed copies.
	mustStore(t, h, 0, addrA, 11, 1)
	h.AbortAll()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after abort: %v", err)
	}

	// Walking a sequence of conflicting lines (same set, different tags)
	// forces evictions; bits for evicted addresses must clear once no copy
	// remains anywhere in a cache.
	l1SetBytes := h.cfg.L1Size / h.cfg.L1Ways
	for i := 0; i < h.cfg.L1Ways+4; i++ {
		a := addrA + Addr(i*l1SetBytes)
		mustStore(t, h, 0, a, uint64(i), vid.NonSpec)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after eviction walk: %v", err)
	}

	// A clear bit must mean the cache truly holds no copy: cross-check the
	// filter against a raw scan for every address we touched.
	for i := 0; i < h.cfg.L1Ways+4; i++ {
		a := LineAddr(addrA + Addr(i*l1SetBytes))
		mask := h.holders(a)
		for _, c := range h.all {
			if mask.has(c.id) {
				continue
			}
			for _, s := range c.sets {
				for w := range s {
					if s[w].St != Invalid && s[w].Tag == a {
						t.Fatalf("%s holds %#x but presence bit clear (mask %v)", c.name, a, mask)
					}
				}
			}
		}
	}
}

// TestSettleSkipStamp verifies the generation-stamp fast path: repeated hits
// on one line skip the settle scan, and any commit, abort or VID reset
// invalidates the stamp so the next access observes the new LC register.
func TestSettleSkipStamp(t *testing.T) {
	h := newTestH(2)
	mustStore(t, h, 0, addrA, 5, 1)
	if v := mustLoad(t, h, 0, addrA, 1); v != 5 {
		t.Fatalf("spec load: got %d, want 5", v)
	}

	// Commit VID 1 lazily; the stamped set must still settle the line on
	// the next access (the commit bumped the generation).
	h.Commit(1)
	if v := mustLoad(t, h, 0, addrA, vid.NonSpec); v != 5 {
		t.Fatalf("post-commit non-spec load: got %d, want 5", v)
	}
	vs := h.Versions(0, addrA)
	for _, ln := range vs {
		if ln.St.Speculative() {
			t.Fatalf("line still speculative after commit+access: %v", ln.St)
		}
	}

	// VID reset must also invalidate stamps: a line settled at the old
	// epoch re-settles as fully committed.
	mustStore(t, h, 0, addrA, 6, 2)
	h.Commit(2)
	h.VIDReset()
	if v := mustLoad(t, h, 0, addrA, vid.NonSpec); v != 6 {
		t.Fatalf("post-reset load: got %d, want 6", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestDisabledMetricsZeroAllocs pins the §15 disabled-instrument contract:
// with no instrument attached (the nil hook), the store paths that carry
// the recording hooks — conflict detection, SLA replay, victim placement —
// must not allocate. The fastpath analyzer proves the guards
// are present; this test proves the guarded fast path stays free.
func TestDisabledMetricsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := newBenchH(2)
	if h.ins.Enabled() {
		t.Fatal("bench hierarchy unexpectedly has an instrument hook")
	}
	h.Store(0, addrA, 1, 1)
	val := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		val++
		h.Store(0, addrA, val, 1)
	}); n != 0 {
		t.Errorf("speculative store with nil recorder: %v allocs/op, want 0", n)
	}
}

// TestAppendExactAllocs pins the checkpoint encoder's allocations: the
// encoding's length is computed up front, so AppendExact from a nil buffer
// makes exactly two allocations — the output, grown once, and the scratch
// slice of sorted map keys — on a hierarchy with lines in every cache,
// main memory and the snoop filter.
func TestAppendExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := New(exactTestCfg(3))
	var lc vid.V
	driveRandom(h, rand.New(rand.NewSource(5)), 400, &lc)
	if len(h.pres) == 0 || h.mem.lines == 0 {
		t.Fatal("stimulus left the snoop filter or main memory empty")
	}
	if got, want := len(h.AppendExact(nil)), h.exactLen(); got != want {
		t.Fatalf("encoding is %d bytes, exactLen says %d", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { h.AppendExact(nil) }); n != 2 {
		t.Errorf("AppendExact(nil): %v allocs/op, want 2", n)
	}
}
