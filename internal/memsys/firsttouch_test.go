package memsys

import (
	"bytes"
	"runtime"
	"testing"

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

// TestFirstTouchSeams drives the first install into L2 set 0, the last L2
// set, and a set first reached by a wrong-path load. Each must allocate
// exactly the sets it installs into, and leave the hierarchy
// indistinguishable from one whose sets were all allocated up front: same
// values, statistics and exact encoding, before and after a round trip.
func TestFirstTouchSeams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Sanitize = true
	l2Sets := cfg.L2Size / (cfg.L2Ways * LineSize)
	// Loads fill the L1 only; a line reaches the L2 when it leaves an L1,
	// so the L2 cases force that eviction.
	cases := []struct {
		name  string
		addr  Addr
		cache int // index into h.all of the cache whose set is first touched
		set   int
		drive func(h *Hierarchy, a Addr) uint64
	}{
		{"L2 set 0", Addr(l2Sets * LineSize), cfg.Cores, 0, func(h *Hierarchy, a Addr) uint64 {
			h.Load(0, a, vid.NonSpec)
			h.Evict(0, a)
			v, _ := h.Load(1, a, vid.NonSpec)
			return v
		}},
		{"last L2 set", Addr((l2Sets - 1) * LineSize), cfg.Cores, l2Sets - 1, func(h *Hierarchy, a Addr) uint64 {
			h.Store(1, a, 99, 1)
			h.Evict(1, a)
			v, _ := h.Load(0, a, 2)
			return v
		}},
		{"wrong-path load", Addr(777 * LineSize), 1, 777 % (cfg.L1Size / (cfg.L1Ways * LineSize)), func(h *Hierarchy, a Addr) uint64 {
			v, _ := h.WrongPathLoad(1, a, 3)
			return v
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy, eager := New(cfg), New(cfg)
			allocateAll(eager)
			for _, h := range []*Hierarchy{lazy, eager} {
				h.PokeWord(tc.addr, 7)
			}
			got, want := tc.drive(lazy, tc.addr), tc.drive(eager, tc.addr)
			if got != want {
				t.Fatalf("first-touch load returned %d, eagerly allocated machine %d", got, want)
			}
			c := lazy.all[tc.cache]
			if c.sets[tc.set] == nil {
				t.Fatalf("%s set %d not allocated by the first install", c.name, tc.set)
			}
			if n := allocatedSets(c); n != 1 {
				t.Fatalf("%s: %d sets allocated, want 1", c.name, n)
			}
			if lazy.stats != eager.stats {
				t.Fatalf("stats differ from the eagerly allocated machine:\n%+v\n%+v", lazy.stats, eager.stats)
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
			for i, c := range back.all {
				if got, want := allocatedSets(c), allocatedSets(lazy.all[i]); got != want {
					t.Fatalf("%s: %d sets allocated after restore, want %d", c.name, got, want)
				}
			}
		})
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
