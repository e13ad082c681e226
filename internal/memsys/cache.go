package memsys

import (
	"fmt"

	"hmtx/internal/vid"
)

// cache is one cache level: a set-associative array of Lines. Multiple
// versions of the same line (same Tag, different VID ranges) may occupy
// different ways of the same set (§4.1).
//
// A set holds only the ways it has used: sets[si] stays nil until pickVictim
// places a line there, and ways len(sets[si]) to ways-1 read as zero Lines,
// which are Invalid, so every loop over a set's ways can stop at its length.
// pickVictim is the only place a set grows. A 32 MB L2 thereby costs only the
// lines a run places, and a lookup scans only the ways a set has used
// (DESIGN.md §11.8). Growth can move a set's lines: no *Line into a cache may
// be used after a call that inserts into that cache.
//
// Per-access work in this file is allocation-free: lookups iterate the ways
// of one set inline instead of materialising version slices, and a per-set
// generation stamp skips the settle scan entirely when nothing committed
// since the set was last scanned for the same tag (DESIGN.md §11).
type cache struct {
	name    string
	id      int // index into the hierarchy's cache array; bit in presence masks
	hier    *Hierarchy
	numSets int
	setMask Addr // numSets-1 when numSets is a power of two above 1, else 0
	ways    int
	sets    [][]Line
	hits    uint64 // requests this cache served (per-cache stats registry)

	// setGen/setTag implement the settle-skip fast path: setGen[si] holds
	// the hierarchy coherence generation (bumped on every Commit, VIDReset
	// and AbortAll) at which set si was last settle-scanned, and setTag[si]
	// the line address that scan was for. When both still match, every
	// resident version of that tag is already settled and the scan is a
	// provable no-op — the common case for consecutive L1 hits.
	setGen []uint64
	setTag []Addr

	// lruClock is this cache's private recency counter. Victim selection
	// only ever compares lru stamps of lines within one set of one cache,
	// so a per-cache clock picks the same victims as a hierarchy-global
	// clock would. The stamps are part of the exact checkpoint encoding.
	lruClock uint64
}

func newCache(name string, id, size, ways int, h *Hierarchy) *cache {
	numSets := size / (ways * LineSize)
	c := &cache{name: name, id: id, hier: h, numSets: numSets, ways: ways}
	if numSets&(numSets-1) == 0 {
		c.setMask = Addr(numSets - 1)
	}
	c.sets = make([][]Line, numSets)
	c.setGen = make([]uint64, numSets)
	c.setTag = make([]Addr, numSets)
	return c
}

// setIndex returns the set lineAddr maps to: the line number modulo the set
// count. Table 2's set counts are powers of two, which take a mask instead of
// a 64-bit division. Config.Validate allows any count; the others, and a
// single set, keep the modulo.
func (c *cache) setIndex(lineAddr Addr) int {
	if c.setMask != 0 {
		return int((lineAddr / LineSize) & c.setMask)
	}
	return int((lineAddr / LineSize) % Addr(c.numSets))
}

// set returns the ways the set holding lineAddr has used (nil if no line was
// ever installed there), with every resident version of lineAddr settled against
// pending lazy commits. Only versions of lineAddr itself are settled — other
// tags in the set keep their lazy state, exactly as before the
// generation-stamp fast path existed, so victim selection is unchanged.
func (c *cache) set(lineAddr Addr) []Line {
	si := c.setIndex(lineAddr)
	s := c.sets[si]
	h := c.hier
	if c.setGen[si] == h.gen && c.setTag[si] == lineAddr {
		// No commit, VID reset or abort since this set was last scanned
		// for this tag, and every line entering a cache is settled at
		// install time — the scan below would be a pure no-op.
		return s
	}
	for i := range s {
		if s[i].St != Invalid && s[i].Tag == lineAddr {
			s[i].settle(h.epoch, h.lc, h.cfg.VIDSpace.Max())
		}
	}
	c.setGen[si] = h.gen
	c.setTag[si] = lineAddr
	return s
}

// findHit returns the unique version of lineAddr that the effective request
// VID a hits under the rules of §4.1, or nil. If snoop is true, SpecShared
// copies do not respond (§4.1).
func (c *cache) findHit(lineAddr Addr, a vid.V, snoop bool) *Line {
	s := c.set(lineAddr)
	var hit *Line
	for i := range s {
		ln := &s[i]
		if ln.St == Invalid || ln.Tag != lineAddr || !ln.serves(a, snoop) {
			continue
		}
		if hit != nil {
			panic(fmt.Sprintf("memsys: %s: two versions hit for %#x vid %d: %v and %v",
				c.name, lineAddr, a, hit, ln))
		}
		hit = ln
	}
	return hit
}

// serves reports whether the valid version ln answers a request with
// effective VID a under the rules of §4.1. If snoop is true, SpecShared
// copies do not respond.
func (ln *Line) serves(a vid.V, snoop bool) bool {
	switch {
	case snoop && ln.St == SpecShared:
		return false
	case !ln.St.Speculative():
		// A non-speculative line coexists with no speculative versions
		// (the first speculative access converts it), so it serves every
		// request.
		return true
	case ln.St.latest():
		return a >= ln.Mod
	case ln.St.superseded():
		return ln.Mod <= a && a < ln.High
	}
	return false
}

// touch updates LRU bookkeeping for ln.
func (c *cache) touch(ln *Line) {
	c.lruClock++
	ln.lru = c.lruClock
}

// victimClass ranks lines for eviction; lower evicts first. Non-speculative
// clean lines can be silently dropped; S-O lines with modVID 0 are
// prioritised among speculative lines because the last-level cache can
// legally overflow them to memory (§5.4).
func victimClass(l *Line) int {
	switch {
	case l.St == Invalid:
		return 0
	case l.St == Shared || l.St == Exclusive:
		return 1
	case l.St == Modified || l.St == Owned:
		return 2
	case l.St == SpecShared:
		return 3 // a copy; dropping it is always safe
	case l.St == SpecOwned && l.Mod == 0:
		return 4
	default:
		return 5
	}
}

// firstWays is the length of a set's first allocation. Most sets of a
// large L2 never hold more than one or two lines; one growth past it
// allocates all the ways, so a set is copied at most once.
const firstWays = 4

// pickVictim chooses a way of the set holding lineAddr to evict. Sibling
// versions of lineAddr itself are eligible but dispreferred: when a hot line
// accumulates many live versions they spill to the next level rather than
// blocking the insert.
//
// The first never-used way, a zero Line, ranks (class 0, lru 0), the lowest
// rank, and comes after every used way, so the first-minimum rule picks it
// unless a used way already ranks (0, 0). Exactly then the set grows by that
// way, and every pick is the one a set of all its ways would make.
func (c *cache) pickVictim(lineAddr Addr) *Line {
	s := c.set(lineAddr)
	var best *Line
	bestClass := 99
	for i := range s {
		ln := &s[i]
		cl := victimClass(ln)
		if ln.St != Invalid && ln.Tag == lineAddr {
			cl += 10 // strongly prefer evicting unrelated lines
		}
		if cl < bestClass || (cl == bestClass && (best == nil || ln.lru < best.lru)) {
			best, bestClass = ln, cl
		}
	}
	if len(s) < c.ways && (bestClass > 0 || best.lru > 0) {
		if len(s) == cap(s) {
			n := c.ways
			if len(s) == 0 {
				n = min(firstWays, c.ways)
			}
			s = append(make([]Line, 0, n), s...)
		}
		s = s[:len(s)+1]
		c.sets[c.setIndex(lineAddr)] = s
		best = &s[len(s)-1]
	}
	return best
}

// insert places ln into the cache, returning the evicted line if a valid
// line had to make room. The caller (the hierarchy) is responsible for
// handling the victim: writing it back, pushing it down a level, or
// aborting (§5.4). insert is the only way a valid line enters a cache, so it
// also maintains the hierarchy's snoop-filter presence bits.
func (c *cache) insert(ln Line) (victim Line, evicted bool) {
	h := c.hier
	// Merge with an existing copy of the same version: an S-S copy may
	// meet its S-O/S-M original when lines migrate between levels.
	s := c.set(ln.Tag)
	for i := range s {
		v := &s[i]
		if v.St == Invalid || v.Tag != ln.Tag {
			continue
		}
		if v.Mod == ln.Mod && v.St.Speculative() == ln.St.Speculative() {
			merged := *v
			if stateRank(ln.St) >= stateRank(v.St) {
				merged = ln
			}
			if ln.High > merged.High && merged.St.latest() {
				merged.High = ln.High
			}
			merged.lru = 0
			*v = merged
			c.touch(v)
			return Line{}, false
		}
	}
	slot := c.pickVictim(ln.Tag)
	if slot.St != Invalid {
		victim, evicted = *slot, true
	}
	*slot = ln
	c.touch(slot)
	h.markPresent(c, ln.Tag)
	if evicted && victim.Tag != ln.Tag {
		// The victim's tag maps to the same set; if no sibling version
		// of it survives there, this cache no longer holds the address.
		// pickVictim may have moved the set, so read it again.
		s = c.sets[c.setIndex(ln.Tag)]
		still := false
		for i := range s {
			if s[i].St != Invalid && s[i].Tag == victim.Tag {
				still = true
				break
			}
		}
		if !still {
			h.clearPresent(c, victim.Tag)
		}
	}
	return victim, evicted
}

// stateRank orders states by authority for merging duplicate copies of one
// version: an owning state wins over a shared copy.
func stateRank(s State) int {
	switch s {
	case SpecShared, Shared:
		return 0
	case SpecOwned, Owned:
		return 1
	case SpecExclusive, Exclusive:
		return 2
	case SpecModified, Modified:
		return 3
	default:
		return -1
	}
}

// forEach applies fn to every valid line in the cache (settled first).
func (c *cache) forEach(fn func(*Line)) {
	h := c.hier
	for si := range c.sets {
		s := c.sets[si]
		for i := range s {
			if s[i].St == Invalid {
				continue
			}
			s[i].settle(h.epoch, h.lc, h.cfg.VIDSpace.Max())
			if s[i].St != Invalid {
				fn(&s[i])
			}
		}
	}
}

// lineCount returns the number of valid lines (for tests and stats).
func (c *cache) lineCount() int {
	n := 0
	c.forEach(func(*Line) { n++ })
	return n
}
