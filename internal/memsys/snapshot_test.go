package memsys

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// snapAddrB is a second line, in a different set from addrA.
const snapAddrB = addrA + 4096

// snapAddrs is the memory scope the snapshot tests fingerprint over.
var snapAddrs = []Addr{addrA, snapAddrB}

// buildSnapState drives a hierarchy into a mixed configuration: committed
// dirty data, a speculative version chain (superseded S-M plus latest S-M),
// a remote S-S copy, and unrelated clean residency.
func buildSnapState(t *testing.T) *Hierarchy {
	t.Helper()
	h := newTestH(2)
	mustStore(t, h, 0, addrA, 10, 0)     // non-spec dirty M in L1.0
	mustLoad(t, h, 1, addrA, 1)          // migrate to L1.1, speculative read
	mustStore(t, h, 1, addrA, 11, 1)     // S-M(1,·) in L1.1
	mustStore(t, h, 1, addrA, 12, 2)     // re-store: S-M(1,2) + S-M(2,·) chain
	mustLoad(t, h, 0, addrA, 1)          // S-S copy of version 1 back in L1.0
	mustStore(t, h, 0, snapAddrB, 20, 0) // unrelated line
	return h
}

// TestCloneIndependence: a clone shares no mutable state — mutating the clone
// leaves the original's canonical encoding untouched, and both evolve
// identically from the fork point under the same stimuli.
func TestCloneIndependence(t *testing.T) {
	h := buildSnapState(t)
	before := h.AppendCanonical(nil, snapAddrs)

	c := h.Clone()
	if !bytes.Equal(before, c.AppendCanonical(nil, snapAddrs)) {
		t.Fatal("clone does not canonicalize identically to its original")
	}

	mustStore(t, c, 0, addrA, 99, 2)
	c.Commit(1)
	c.AbortAll()
	if !bytes.Equal(before, h.AppendCanonical(nil, snapAddrs)) {
		t.Fatal("mutating the clone changed the original")
	}

	// Same stimuli applied to both sides of the fork must stay in lockstep.
	c2 := h.Clone()
	h.Commit(1)
	mustLoad(t, h, 1, addrA, 2)
	c2.Commit(1)
	mustLoad(t, c2, 1, addrA, 2)
	if h.Fingerprint(snapAddrs) != c2.Fingerprint(snapAddrs) {
		t.Fatal("original and clone diverged under identical stimuli")
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatalf("clone violates invariants: %v", err)
	}
}

// TestFingerprintWayPermutation: physically permuting the ways of a set (and
// translating the LRU stamps while preserving their relative order) is
// unobservable, so the fingerprint must not move.
func TestFingerprintWayPermutation(t *testing.T) {
	h := buildSnapState(t)
	fp := h.Fingerprint(snapAddrs)

	for _, c := range h.all {
		for si := range c.sets {
			s := c.sets[si]
			for l, r := 0, len(s)-1; l < r; l, r = l+1, r-1 {
				s[l], s[r] = s[r], s[l]
			}
		}
	}
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("way permutation changed the fingerprint")
	}

	// Rescale LRU stamps: double every stamp, preserving within-set order.
	for _, c := range h.all {
		for si := range c.sets {
			s := c.sets[si]
			for i := range s {
				s[i].lru *= 2
			}
		}
	}
	for _, c := range h.all {
		c.lruClock *= 2
	}
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("order-preserving LRU rescale changed the fingerprint")
	}
}

// TestFingerprintCorePermutation: the checker's stimulus alphabet is
// core-symmetric, so swapping the entire contents of two L1s is quotiented
// away by the sorted per-L1 encoding.
func TestFingerprintCorePermutation(t *testing.T) {
	h := buildSnapState(t)
	fp := h.Fingerprint(snapAddrs)

	a, b := h.l1s[0], h.l1s[1]
	a.sets, b.sets = b.sets, a.sets
	a.setGen, b.setGen = b.setGen, a.setGen
	a.setTag, b.setTag = b.setTag, a.setTag
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("core permutation changed the fingerprint")
	}
}

// TestFingerprintDistinct: semantically different states must not collapse.
// Each mutation below is observable through the protocol, so each must move
// the canonical encoding.
func TestFingerprintDistinct(t *testing.T) {
	base := buildSnapState(t)
	fp := base.Fingerprint(snapAddrs)

	// spec returns the first speculative line of addrA's set in L1.1.
	spec := func(h *Hierarchy) *Line {
		s := h.l1s[1].sets[h.l1s[1].setIndex(addrA)]
		for i := range s {
			if s[i].St.Speculative() {
				return &s[i]
			}
		}
		t.Fatal("no speculative line found to mutate")
		return nil
	}
	mutations := []struct {
		name string
		mut  func(*Hierarchy)
	}{
		{"tag", func(h *Hierarchy) { spec(h).Tag += LineSize }},
		{"state", func(h *Hierarchy) {
			if ln := spec(h); ln.St == SpecModified {
				ln.St = SpecOwned
			} else {
				ln.St = SpecModified
			}
		}},
		{"modVID", func(h *Hierarchy) { spec(h).Mod++ }},
		{"line epoch", func(h *Hierarchy) { spec(h).Epoch = h.epoch + 1 }},
		{"lazy commit", func(h *Hierarchy) {
			if ln := spec(h); ln.SettledLC == h.lc {
				ln.SettledLC = h.lc + 1
			} else {
				ln.SettledLC = h.lc
			}
		}},
		{"shadow mark", func(h *Hierarchy) {
			ln := spec(h)
			ln.ShadowEpoch, ln.ShadowHigh = h.epoch, ln.shadow(h.epoch)+1
		}},
		{"data byte", func(h *Hierarchy) {
			h.l1s[1].sets[h.l1s[1].setIndex(addrA)][0].Data[0] ^= 0xff
		}},
		{"version range", func(h *Hierarchy) {
			s := h.l1s[1].sets[h.l1s[1].setIndex(addrA)]
			for i := range s {
				if s[i].St.Speculative() && s[i].St.superseded() {
					s[i].High++
					return
				}
			}
			t.Fatal("no superseded version found to mutate")
		}},
		{"lru order", func(h *Hierarchy) {
			// Swapping the recency of two valid lines in one set changes
			// the next victim, which is observable under capacity pressure.
			s := h.l1s[1].sets[h.l1s[1].setIndex(addrA)]
			var valid []*Line
			for i := range s {
				if s[i].St != Invalid {
					valid = append(valid, &s[i])
				}
			}
			if len(valid) < 2 {
				t.Fatal("need two valid lines to swap recency")
			}
			valid[0].lru, valid[1].lru = valid[1].lru, valid[0].lru
		}},
		{"committed memory", func(h *Hierarchy) {
			d := h.mem.read(LineAddr(snapAddrB))
			d[0] ^= 0xff
			h.mem.write(LineAddr(snapAddrB), d)
		}},
		{"lc register", func(h *Hierarchy) {
			h.lc++
		}},
	}
	for _, m := range mutations {
		h := buildSnapState(t)
		m.mut(h)
		if h.Fingerprint(snapAddrs) == fp {
			t.Errorf("%s mutation did not change the fingerprint", m.name)
		}
	}
}

// TestSnapshotFieldInventory lists every field of the structs Clone copies and
// AppendCanonical encodes, so that a new field fails here until it is placed
// in Clone, in AppendCanonical (or left out of it with a reason in its doc)
// and in the exact encoding, and, for Line, in TestFingerprintDistinct. A
// field the fingerprint misses merges states the model checker must keep
// apart.
func TestSnapshotFieldInventory(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{Line{}, "Tag St Mod High Epoch SettledLC ShadowHigh ShadowEpoch Data lru"},
		{Hierarchy{}, "cfg l1s l2 all mem lc epoch stats tracker ins gen pres pendingOverflow san"},
		{cache{}, "name id hier numSets setMask ways sets hits setGen setTag lruClock"},
		{memory{}, "chunks lines"},
		{memChunk{}, "present data"},
	} {
		typ := reflect.TypeOf(tc.v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s fields are %q, the snapshot methods were written for %q", typ.Name(), got, tc.want)
		}
	}
}

// TestCloneDropsObservers: clones must not inherit trackers or the instrument
// hook — checker edges would otherwise emit events.
func TestCloneDropsObservers(t *testing.T) {
	h := buildSnapState(t)
	h.Hook()
	c := h.Clone()
	if c.tracker != nil || c.ins != nil {
		t.Fatal("clone carried observers over")
	}
}
