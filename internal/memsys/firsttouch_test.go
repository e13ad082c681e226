package memsys

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"hmtx/internal/vid"
)

// allocatedSets counts the sets of c that hold storage.
func allocatedSets(c *cache) int {
	n := 0
	for _, s := range c.sets {
		if s != nil {
			n++
		}
	}
	return n
}

// allocateAll gives every set of h storage, as newCache did before sets were
// allocated on first install: the reference a first-touch hierarchy must be
// indistinguishable from.
func allocateAll(h *Hierarchy) {
	for _, c := range h.all {
		for si := range c.sets {
			if c.sets[si] == nil {
				c.sets[si] = make([]Line, c.ways)
			}
		}
	}
}

// TestNewAllocatesLittle pins the point of first-touch sets: building the
// Table 2 machine, whose 32 MB L2 alone is ~59 MB of Lines, allocates only
// the per-set bookkeeping.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	const limit = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("New(DefaultConfig()) allocated %d bytes, want < %d", got, limit)
	}
	for _, c := range h.all {
		if n := allocatedSets(c); n != 0 {
			t.Fatalf("%s: %d sets allocated before any access", c.name, n)
		}
	}
}

// Boundary addresses of the address space and of main memory's chunks.
const (
	seamLine0     = Addr(0)                               // the first line of all
	seamChunkLast = Addr((chunkLines - 1) * LineSize)     // the last line of chunk 0
	seamChunkNext = Addr(chunkLines * LineSize)           // the first line of chunk 1
	seamTop       = ^Addr(0) &^ (LineSize - 1)            // the last line of all
	seamTopChunk  = ^Addr(0) &^ (chunkLines*LineSize - 1) // the first line of the last chunk
)

// exactMemory decodes the main-memory section of h's exact encoding: the
// lines it lists, in order, and their data.
func exactMemory(t testing.TB, h *Hierarchy) ([]Addr, map[Addr][LineSize]byte) {
	t.Helper()
	r := &exactReader{s: SparseOf(h.AppendExact(nil))}
	if err := r.header(h.cfg.geometry()); err != nil {
		t.Fatal(err)
	}
	r.skip(1, 1+8+8+1)             // LC VID, epoch, generation, overflow flag
	r.skip(r.u64(), 8)             // statistics
	r.skip(r.u64(), 8+8*presWords) // presence masks
	var addrs []Addr
	lines := map[Addr][LineSize]byte{}
	for n, i := r.u64(), uint64(0); i < n && r.err == nil; i++ {
		a := r.u64()
		addrs = append(addrs, a)
		lines[a] = [LineSize]byte(r.bytes(LineSize))
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return addrs, lines
}

// checkPlacement requires every valid line of every cache of h to sit in
// set (la/LineSize) % numSets, computed here without setIndex.
func checkPlacement(t *testing.T, h *Hierarchy) {
	t.Helper()
	for _, c := range h.all {
		for si, s := range c.sets {
			for wi := range s {
				if s[wi].St == Invalid {
					continue
				}
				if want := int(s[wi].Tag / LineSize % Addr(c.numSets)); si != want {
					t.Fatalf("%s: line %#x sits in set %d of %d, want set %d", c.name, s[wi].Tag, si, c.numSets, want)
				}
			}
		}
	}
}

// TestFirstTouchSeams is a table of boundary addresses, in the manner of a
// memory-accessor test: the first and last line of the address space and of
// a memory chunk, the first and last L2 set, a set first reached by a
// wrong-path load, a line written as zeros, and caches of a power-of-two
// number of sets, of three sets and of one set. Each row pokes a value into
// its line, drives it into the caches, and requires that
//   - every set allocated is one an install touched, each only as long as
//     the lines placed there, and the hierarchy is indistinguishable from
//     one whose sets were all allocated up front: same values, statistics
//     and exact encoding, before and after a round trip;
//   - every line sits in set (la/LineSize) % numSets of its cache;
//   - main memory holds exactly the poked line, zeros included, counts it,
//     lists it in the exact encoding, and restores it.
func TestFirstTouchSeams(t *testing.T) {
	base := DefaultConfig()
	base.Cores = 2
	base.Sanitize = true
	l2Sets := base.L2Size / (base.L2Ways * LineSize)
	l1Sets := func(n int) func(*Config) {
		return func(cfg *Config) { cfg.L1Size = n * cfg.L1Ways * LineSize }
	}
	// Loads fill the L1 only; a line reaches the L2 when it leaves an L1,
	// so the L2 cases force that eviction.
	viaL2 := func(h *Hierarchy, a Addr) uint64 {
		h.Load(0, a, vid.NonSpec)
		h.Evict(0, a)
		v, _ := h.Load(1, a, vid.NonSpec)
		return v
	}
	// The store leaves an S-O and an S-M version in L1.1.
	versions := func(h *Hierarchy, a Addr) uint64 {
		h.Store(1, a, 99, 1)
		h.Evict(1, a)
		v, _ := h.Load(0, a, 2)
		return v
	}
	load := func(h *Hierarchy, a Addr) uint64 {
		v, _ := h.Load(1, a, vid.NonSpec)
		return v
	}
	cases := []struct {
		name   string
		config func(*Config) // nil for the Table 2 caches, 64 L1 sets and 65,536 L2 sets
		addr   Addr
		poke   uint64
		lens   []int // per cache of h.all, the length of the set holding addr
		want   uint64
		drive  func(h *Hierarchy, a Addr) uint64
	}{
		{"L2 set 0", nil, Addr(l2Sets * LineSize), 7, []int{1, 1, 1}, 7, viaL2},
		{"last L2 set", nil, Addr((l2Sets - 1) * LineSize), 7, []int{1, 2, 1}, 99, versions},
		{"wrong-path load", nil, Addr(777 * LineSize), 7, []int{0, 1, 0}, 7, func(h *Hierarchy, a Addr) uint64 {
			v, _ := h.WrongPathLoad(1, a, 3)
			return v
		}},
		{"line 0", nil, seamLine0, 7, []int{1, 1, 1}, 7, viaL2},
		{"last line of a chunk", nil, seamChunkLast, 7, []int{1, 2, 1}, 99, versions},
		{"first line of the next chunk", nil, seamChunkNext, 7, []int{1, 2, 1}, 99, versions},
		{"top line", nil, seamTop, 7, []int{1, 1, 1}, 7, viaL2},
		{"first line of the top chunk", nil, seamTopChunk, 7, []int{1, 2, 1}, 99, versions},
		{"written zero line", nil, seamChunkNext, 0, []int{0, 1, 0}, 0, load},
		{"3-set L1s, top line", l1Sets(3), seamTop, 7, []int{1, 1, 1}, 7, viaL2},
		{"3-set L1s, line 5", l1Sets(3), 5 * LineSize, 7, []int{1, 2, 1}, 99, versions},
		{"1-set L1s", l1Sets(1), seamChunkLast, 7, []int{1, 1, 1}, 7, viaL2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			if tc.config != nil {
				tc.config(&cfg)
			}
			lazy, eager := New(cfg), New(cfg)
			allocateAll(eager)
			for _, h := range []*Hierarchy{lazy, eager} {
				h.PokeWord(tc.addr, tc.poke)
			}
			got, want := tc.drive(lazy, tc.addr), tc.drive(eager, tc.addr)
			if got != want || got != tc.want {
				t.Fatalf("first-touch load returned %d, eagerly allocated machine %d, want %d", got, want, tc.want)
			}
			for i, c := range lazy.all {
				si := int(tc.addr / LineSize % Addr(c.numSets))
				if n := len(c.sets[si]); n != tc.lens[i] {
					t.Fatalf("%s: set %d of %d holds %d ways, want %d", c.name, si, c.numSets, n, tc.lens[i])
				}
				if n, want := allocatedSets(c), min(tc.lens[i], 1); n != want {
					t.Fatalf("%s: %d sets allocated, want %d", c.name, n, want)
				}
			}
			checkPlacement(t, lazy)
			if lazy.stats != eager.stats {
				t.Fatalf("stats differ from the eagerly allocated machine:\n%+v\n%+v", lazy.stats, eager.stats)
			}

			// The poked line is main memory's only line, even as zeros.
			wantLine := lazy.mem.read(tc.addr)
			if w := lazy.mem.word(tc.addr); w != tc.poke {
				t.Fatalf("memory word at %#x is %d, want %d", tc.addr, w, tc.poke)
			}
			if lazy.mem.lines != 1 {
				t.Fatalf("memory counts %d lines, want 1", lazy.mem.lines)
			}
			if addrs, lines := exactMemory(t, lazy); len(addrs) != 1 || addrs[0] != tc.addr || lines[tc.addr] != wantLine {
				t.Fatalf("exact encoding lists memory lines %#x, want [%#x]", addrs, tc.addr)
			}

			enc := lazy.AppendExact(nil)
			if !bytes.Equal(enc, eager.AppendExact(nil)) {
				t.Fatal("exact encoding differs from the eagerly allocated machine")
			}
			back := New(cfg)
			if err := back.RestoreExact(enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.AppendExact(nil), enc) {
				t.Fatal("restored machine re-encodes differently")
			}
			if back.mem.lines != 1 || back.mem.read(tc.addr) != wantLine {
				t.Fatalf("restored memory counts %d lines, want the poked one", back.mem.lines)
			}
			for i, c := range back.all {
				if got, want := allocatedSets(c), allocatedSets(lazy.all[i]); got != want {
					t.Fatalf("%s: %d sets allocated after restore, want %d", c.name, got, want)
				}
				if n := len(c.sets[c.setIndex(tc.addr)]); n != tc.lens[i] {
					t.Fatalf("%s: touched set restored with %d ways, want %d", c.name, n, tc.lens[i])
				}
			}
		})
	}
}

// TestSetGrowthAllocations pins what a set costs: the first install into an
// empty Table 2 L2 set allocates at most four Lines, and a set is
// reallocated at most once, holding ways 1 to 4 in its first backing array
// and ways 5 to 32 in a second.
func TestSetGrowthAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations count in TotalAlloc")
	}
	h := New(DefaultConfig())
	c := h.l2
	stride := Addr(c.numSets * LineSize) // every line lands in set 0
	lines := make([]Line, c.ways+1)
	for i := range lines {
		lines[i] = Line{Tag: Addr(i) * stride, St: Exclusive, Epoch: h.epoch, SettledLC: h.lc}
		// Enter each line in the snoop filter now, so that its map does
		// not grow inside the measurement.
		h.pres[lines[i].Tag] = presMask{}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.insert(lines[0])
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*unsafe.Sizeof(Line{})); got > limit {
		t.Fatalf("first install into an empty L2 set allocated %d bytes, want at most %d", got, limit)
	}

	first := &c.sets[0][0]
	for i := 1; i <= c.ways; i++ {
		c.insert(lines[i])
		s := c.sets[0]
		if want := min(i+1, c.ways); len(s) != want {
			t.Fatalf("after %d installs set 0 holds %d ways, want %d", i+1, len(s), want)
		}
		switch moved := &s[0] != first; {
		case i < firstWays:
			if moved || cap(s) != firstWays {
				t.Fatalf("install %d: set reallocated within its first %d ways (cap %d)", i+1, firstWays, cap(s))
			}
		case i == firstWays:
			if !moved || cap(s) != c.ways {
				t.Fatalf("install %d: set did not move to one array of all %d ways (cap %d)", i+1, c.ways, cap(s))
			}
			first = &s[0]
		case moved:
			t.Fatalf("install %d: set reallocated a second time", i+1)
		}
	}
}

// TestGrowthUnderL2Owner is the moving-pointer hazard of set growth. A load
// served by an L2 owner invalidates the owner, then installs the copy in
// the requester's L1; that install evicts an L1 victim into the owner's own
// L2 set, which grows from four ways to all of them and so moves. A write
// through the owner's pointer after the install would land in the old
// array, leaving a second valid copy behind.
func TestGrowthUnderL2Owner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Sanitize = true
	l2Sets := cfg.L2Size / (cfg.L2Ways * LineSize)
	// One L2 set spans a multiple of the L1's sets, so these lines share
	// an L1 set and an L2 set.
	line := func(i int) Addr { return Addr(i * l2Sets * LineSize) }
	lazy, full := New(cfg), New(cfg)
	allocateAll(full)
	for _, h := range []*Hierarchy{lazy, full} {
		for i := 0; i < 4; i++ {
			h.PokeWord(line(i), uint64(100+i))
			h.Load(0, line(i), vid.NonSpec)
			h.Evict(0, line(i)) // into L2 set 0
		}
		for i := 4; i < 4+cfg.L1Ways; i++ {
			h.Load(1, line(i), vid.NonSpec) // fill L1.1's set
		}
	}
	s := lazy.l2.sets[0]
	if len(s) != 4 || cap(s) != firstWays {
		t.Fatalf("L2 set 0 holds %d ways in %d before the load, want 4 in %d", len(s), cap(s), firstWays)
	}

	got, gotRes := lazy.Load(1, line(0), vid.NonSpec)
	want, wantRes := full.Load(1, line(0), vid.NonSpec)
	if gotRes.Src != SrcL2 {
		t.Fatalf("load served from %v, want the L2", gotRes.Src)
	}
	if moved := lazy.l2.sets[0]; len(moved) != 5 || &moved[0] == &s[0] {
		t.Fatalf("L2 set 0 did not grow to 5 ways in a new array (len %d)", len(moved))
	}
	if got != want || gotRes != wantRes {
		t.Fatalf("load returned %d %+v, full-set machine %d %+v", got, gotRes, want, wantRes)
	}
	if got != 100 {
		t.Fatalf("load returned %d, want 100", got)
	}
	if lazy.stats != full.stats {
		t.Fatalf("stats differ from the full-set machine:\n%+v\n%+v", lazy.stats, full.stats)
	}
	if !bytes.Equal(lazy.AppendExact(nil), full.AppendExact(nil)) {
		t.Fatal("exact encoding differs from the full-set machine")
	}
	// Versions settles the set it reads, so it comes after the encoding.
	if v := lazy.Versions(cfg.Cores, line(0)); len(v) != 0 {
		t.Fatalf("the L2 still holds %v after serving the line to L1.1", v)
	}
}

// TestCloneSharesNoSets: an allocated set is deep-copied and an unallocated
// one stays unallocated, so writes to a clone never reach the original.
func TestCloneSharesNoSets(t *testing.T) {
	h := buildSnapState(t)
	before := h.AppendExact(nil)
	c := h.Clone()
	for i, oc := range h.all {
		cc := c.all[i]
		if allocatedSets(cc) != allocatedSets(oc) {
			t.Fatalf("%s: clone has %d sets allocated, original %d", oc.name, allocatedSets(cc), allocatedSets(oc))
		}
		for si, s := range oc.sets {
			if s == nil {
				continue
			}
			if &cc.sets[si][0] == &s[0] {
				t.Fatalf("%s set %d: clone shares the original's storage", oc.name, si)
			}
			for wi := range cc.sets[si] {
				cc.sets[si][wi].Data[0] ^= 0xff
				cc.sets[si][wi].lru++
			}
		}
	}
	if !bytes.Equal(h.AppendExact(nil), before) {
		t.Fatal("writes to the clone's sets changed the original")
	}
}

// TestFreshExactRoundTrip: a hierarchy that was never accessed encodes every
// set as zero Lines and restores with no set allocated.
func TestFreshExactRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	enc := New(cfg).AppendExact(nil)
	h := New(cfg)
	if err := h.RestoreExact(enc); err != nil {
		t.Fatal(err)
	}
	for _, c := range h.all {
		if n := allocatedSets(c); n != 0 {
			t.Fatalf("%s: %d sets allocated after restoring a fresh encoding", c.name, n)
		}
	}
	if !bytes.Equal(h.AppendExact(nil), enc) {
		t.Fatal("fresh round trip re-encodes differently")
	}
}
