package memsys

import (
	"fmt"
	"sort"
	"strings"

	"hmtx/internal/vid"
)

// MOESI-San: an optional global-invariant checker for the HMTX coherence
// protocol. When Config.Sanitize is set, every public protocol transaction
// (Load, WrongPathLoad, Store, SLA, AbortAll, PokeWord) is followed by an
// assertion pass over the lines the operation touched; AbortAll additionally
// verifies the entire hierarchy. A violation panics with an
// *InvariantViolation carrying a full hierarchy dump.
//
// The checker is purely observational: it reads raw cache frames and settles
// *copies* of them against the current (epoch, LC) registers. It never
// settles a resident line, so enabling it cannot change victim selection,
// eviction order, latencies or statistics — a sanitized run is
// cycle-identical to an unsanitized one.
//
// The invariants asserted, with their paper sources (see DESIGN.md for the
// full list):
//
//  1. Structural (§4.1): tags are line-aligned and map to the frame's set;
//     states are in range; LRU stamps never exceed the cache's LRU clock and
//     are unique within a set; no two frames of one set hold the same
//     (tag, modVID, speculative?) version — insert must have merged them.
//  2. Settling (§4.6, §5.3): after settling against (epoch, LC), no line
//     belongs to a stale epoch or carries a pending commit; a line from a
//     committed epoch is never still speculative.
//  3. VID ranges (§4.1): Mod <= High on every speculative line; S-E has
//     Mod == 0; non-speculative lines have Mod == High == 0; High is at
//     most maxVID for latest versions and maxVID+1 for superseded ones
//     (the S-S re-snoop bound).
//  4. Version uniqueness (§4.1, §4.2): at most one latest version (S-M or
//     S-E) of a line exists anywhere; owning versions with the same modVID
//     are legal only as §5.4-reconstituted S-O(0,·) duplicates holding
//     byte-identical committed data.
//  5. Non-overlap (§4.1): sorting a line's owning versions by modVID, every
//     non-final version is superseded (S-O) with High at most the next
//     version's modVID, and the final one is the latest (S-M/S-E) — version
//     ranges never overlap across caches.
//  6. Dirty-owner uniqueness (§4.2): at most one M or E copy of a line, and
//     it coexists with no other non-speculative copy; speculative owners
//     never coexist with non-speculative copies. (Multiple O copies with
//     identical data are tolerated: a §5.4 S-O(0,·) reconstitution followed
//     by an abort legally restores Owned in two caches.)
//  7. Data identity (§4.1): all non-speculative copies of a line are
//     byte-identical, and match memory when none is dirty; every serveable
//     S-S copy is byte-identical to its same-modVID owner, or — when the
//     owner was legally written back to memory (§5.4) — to memory itself.
//  8. Snoop-filter coverage (DESIGN.md §11): every cache holding a valid
//     frame of a line has its presence bit set in the hierarchy's snoop
//     filter — the filter is a conservative superset, so it can never mask
//     a real copy from a bus snoop or protocol sweep. (Stale set bits are
//     legal; they cost a wasted visit, never correctness.)
type sanitizer struct {
	// touched accumulates the line addresses the current operation moved,
	// marked or evicted, in first-touch order (deterministic).
	touched []Addr
	seen    map[Addr]struct{}
	// muted suppresses checks between a §5.4 speculative overflow (which
	// deliberately tears the version chain: the evicted line is dropped
	// and an abort is forced) and the AbortAll that repairs it.
	muted bool
}

// InvariantViolation describes a failed MOESI-San assertion.
type InvariantViolation struct {
	// Addr is the line address the violated invariant concerns (0 for
	// set-structural violations, where Msg names cache and set).
	Addr Addr
	// Msg states the violated invariant.
	Msg string
	// Dump is the full hierarchy state at the time of the violation.
	Dump string
}

func (e *InvariantViolation) Error() string {
	return fmt.Sprintf("memsys: MOESI-San: line %#x: %s\n%s", e.Addr, e.Msg, e.Dump)
}

// sanBegin starts a new per-operation touch set rooted at addr.
func (h *Hierarchy) sanBegin(addr Addr) {
	if !h.cfg.Sanitize {
		return
	}
	h.san.touched = h.san.touched[:0]
	if h.san.seen == nil {
		h.san.seen = make(map[Addr]struct{})
	} else {
		clear(h.san.seen)
	}
	h.sanTouch(LineAddr(addr))
}

// sanTouch records that the current operation affected lineAddr (evictions
// cascade to unrelated tags, so one operation can touch several lines).
func (h *Hierarchy) sanTouch(lineAddr Addr) {
	if !h.cfg.Sanitize {
		return
	}
	if _, ok := h.san.seen[lineAddr]; ok {
		return
	}
	h.san.seen[lineAddr] = struct{}{}
	h.san.touched = append(h.san.touched, lineAddr)
}

// sanCheck asserts the invariants for every line the operation touched,
// panicking on the first violation.
func (h *Hierarchy) sanCheck() {
	if !h.cfg.Sanitize || h.san.muted {
		return
	}
	for _, la := range h.san.touched {
		if err := h.checkLine(la); err != nil {
			panic(err)
		}
		for _, c := range h.allCaches() {
			if err := h.checkSet(c, c.setIndex(la)); err != nil {
				panic(err)
			}
		}
	}
}

// CheckInvariants verifies the whole hierarchy: every allocated set of every
// cache structurally (an unallocated set holds no line), and the cross-cache
// invariants for every resident line. It returns nil when all invariants
// hold. Tests may call it directly; AbortAll runs it automatically under
// Config.Sanitize, and RestoreExact runs it on every restored state.
func (h *Hierarchy) CheckInvariants() error {
	var tags []Addr
	seen := make(map[Addr]struct{})
	for _, c := range h.allCaches() {
		for si, set := range c.sets {
			if set == nil {
				continue // never allocated: all Invalid
			}
			if err := h.checkSet(c, si); err != nil {
				return err
			}
			for wi := range set {
				if set[wi].St == Invalid {
					continue
				}
				if _, ok := seen[set[wi].Tag]; !ok {
					seen[set[wi].Tag] = struct{}{}
					tags = append(tags, set[wi].Tag)
				}
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, la := range tags {
		if err := h.checkLine(la); err != nil {
			return err
		}
	}
	return nil
}

func (h *Hierarchy) violation(la Addr, format string, args ...any) error {
	return &InvariantViolation{Addr: la, Msg: fmt.Sprintf(format, args...), Dump: h.String()}
}

// checkSet asserts the structural invariants of one cache set: tag/set
// consistency, state range, LRU sanity, and version uniqueness within the
// set.
func (h *Hierarchy) checkSet(c *cache, si int) error {
	set := c.sets[si]
	type verKey struct {
		tag  Addr
		mod  vid.V
		spec bool
	}
	vers := make(map[verKey]int)
	lrus := make(map[uint64]int)
	for wi := range set {
		ln := &set[wi]
		if ln.St > SpecShared {
			return h.violation(ln.Tag, "%s set %d way %d: state out of range: %d", c.name, si, wi, uint8(ln.St))
		}
		if ln.St == Invalid {
			continue
		}
		if ln.Tag%LineSize != 0 {
			return h.violation(ln.Tag, "%s set %d way %d: tag %#x not line-aligned", c.name, si, wi, ln.Tag)
		}
		if c.setIndex(ln.Tag) != si {
			return h.violation(ln.Tag, "%s set %d way %d: tag %#x belongs in set %d", c.name, si, wi, ln.Tag, c.setIndex(ln.Tag))
		}
		if ln.lru == 0 || ln.lru > c.lruClock {
			return h.violation(ln.Tag, "%s set %d way %d: LRU stamp %d outside (0, clock=%d]", c.name, si, wi, ln.lru, c.lruClock)
		}
		if prev, ok := lrus[ln.lru]; ok {
			return h.violation(ln.Tag, "%s set %d: ways %d and %d share LRU stamp %d", c.name, si, prev, wi, ln.lru)
		}
		lrus[ln.lru] = wi
		k := verKey{ln.Tag, ln.Mod, ln.St.Speculative()}
		if prev, ok := vers[k]; ok {
			return h.violation(ln.Tag, "%s set %d: ways %d and %d hold duplicate unmerged versions %v and %v of %#x",
				c.name, si, prev, wi, &set[prev], ln, ln.Tag)
		}
		vers[k] = wi
	}
	return nil
}

// sanView is one cache's settled view of a line for cross-cache checking.
type sanView struct {
	cache string
	view  Line // copy of the frame, settled against (epoch, LC)
}

func (v *sanView) String() string { return fmt.Sprintf("%s:%v", v.cache, &v.view) }

// lineViews gathers a settled copy of every resident version of la. The
// resident frames are not modified.
func (h *Hierarchy) lineViews(la Addr) []sanView {
	maxV := h.cfg.VIDSpace.Max()
	var out []sanView
	for _, c := range h.allCaches() {
		set := c.sets[c.setIndex(la)]
		for wi := range set {
			if set[wi].St == Invalid || set[wi].Tag != la {
				continue
			}
			cp := set[wi]
			cp.settle(h.epoch, h.lc, maxV)
			if cp.St == Invalid {
				continue // fully committed superseded version: not live state
			}
			out = append(out, sanView{cache: c.name, view: cp})
		}
	}
	return out
}

// checkFilter asserts invariant 8 for la: any cache holding a valid frame of
// the line must be covered by the snoop filter's presence mask.
func (h *Hierarchy) checkFilter(la Addr) error {
	mask := h.pres[la]
	for _, c := range h.all {
		if mask.has(c.id) {
			continue
		}
		set := c.sets[c.setIndex(la)]
		for wi := range set {
			if set[wi].St != Invalid && set[wi].Tag == la {
				return h.violation(la, "%s holds %v but its snoop-filter presence bit is clear (mask %v)",
					c.name, &set[wi], mask)
			}
		}
	}
	return nil
}

// checkLine asserts every cross-cache invariant for the line at la.
func (h *Hierarchy) checkLine(la Addr) error {
	if err := h.checkFilter(la); err != nil {
		return err
	}
	maxV := h.cfg.VIDSpace.Max()
	views := h.lineViews(la)

	// Per-view: settling and VID-range well-formedness (invariants 2, 3).
	for i := range views {
		v := &views[i]
		ln := &v.view
		if ln.Epoch != h.epoch || ln.SettledLC != h.lc {
			return h.violation(la, "%s: settled to (epoch=%d, lc=%d), hierarchy at (epoch=%d, lc=%d)",
				v, ln.Epoch, ln.SettledLC, h.epoch, h.lc)
		}
		if !ln.St.Speculative() {
			if ln.Mod != 0 || ln.High != 0 {
				return h.violation(la, "%s: non-speculative line carries VIDs", v)
			}
			continue
		}
		if ln.St == SpecExclusive && ln.Mod != 0 {
			return h.violation(la, "%s: S-E must have modVID 0", v)
		}
		if ln.Mod > ln.High {
			return h.violation(la, "%s: malformed version range: modVID > highVID", v)
		}
		if ln.Mod > maxV {
			return h.violation(la, "%s: modVID exceeds VID space max %d", v, maxV)
		}
		limit := maxV // latest versions track real accessors
		if ln.St.superseded() {
			limit = maxV + 1 // re-snoop/supersede bounds may be maxV+1
		}
		if ln.High > limit {
			return h.violation(la, "%s: highVID exceeds bound %d", v, limit)
		}
	}

	// findHit safety (§4.1): within one cache, the VID serve ranges of a
	// line's resident versions are disjoint — a non-speculative line
	// serves every VID, a latest version serves [Mod, ∞), a superseded
	// one [Mod, High). Overlap would make a hit ambiguous. (Across
	// caches, overlap is legal: e.g. duplicate §5.4 S-O(0,·) owners.)
	serveRange := func(ln *Line) (lo vid.V, hi vid.V, unbounded, serves bool) {
		switch {
		case !ln.St.Speculative():
			return 0, 0, true, true
		case ln.St.latest():
			return ln.Mod, 0, true, true
		default:
			return ln.Mod, ln.High, false, ln.Mod < ln.High
		}
	}
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			v, w := &views[i], &views[j]
			if v.cache != w.cache {
				continue
			}
			vlo, vhi, vinf, vok := serveRange(&v.view)
			wlo, whi, winf, wok := serveRange(&w.view)
			if !vok || !wok {
				continue
			}
			if (vinf || wlo < vhi) && (winf || vlo < whi) {
				return h.violation(la, "serve ranges overlap within %s: %s and %s", v.cache, v, w)
			}
		}
	}

	// Partition the views.
	var nonSpec, owners, copies []*sanView
	for i := range views {
		v := &views[i]
		switch {
		case !v.view.St.Speculative():
			nonSpec = append(nonSpec, v)
		case v.view.St == SpecShared:
			copies = append(copies, v)
		default:
			owners = append(owners, v)
		}
	}

	// Invariant 6: exclusivity of ownership.
	if len(owners) > 0 && len(nonSpec) > 0 {
		return h.violation(la, "speculative owner %s coexists with non-speculative copy %s", owners[0], nonSpec[0])
	}
	exclusive := 0
	for _, v := range nonSpec {
		if v.view.St == Modified || v.view.St == Exclusive {
			exclusive++
		}
	}
	if exclusive > 0 && len(nonSpec) > 1 {
		return h.violation(la, "M/E copy coexists with other non-speculative copies: %s, %s", nonSpec[0], nonSpec[1])
	}

	// Invariant 7 for non-speculative copies: identical data, matching
	// memory when clean.
	dirty := false
	for _, v := range nonSpec {
		if v.view.Data != nonSpec[0].view.Data {
			return h.violation(la, "non-speculative copies diverge: %s vs %s", nonSpec[0], v)
		}
		if v.view.St.dirty() {
			dirty = true
		}
	}
	if len(nonSpec) > 0 && !dirty {
		if mem := h.mem.read(la); nonSpec[0].view.Data != mem {
			return h.violation(la, "clean copy %s does not match memory", nonSpec[0])
		}
	}

	// Invariants 4 and 5: version uniqueness and non-overlap among owners.
	sort.SliceStable(owners, func(i, j int) bool { return owners[i].view.Mod < owners[j].view.Mod })
	latest := 0
	for _, v := range owners {
		if v.view.St.latest() {
			latest++
		}
	}
	if latest > 1 {
		return h.violation(la, "multiple latest versions resident")
	}
	for i, v := range owners {
		// Same-modVID duplicates: only §5.4-reconstituted S-O(0,·).
		for _, w := range owners[i+1:] {
			if w.view.Mod != v.view.Mod {
				break
			}
			if v.view.Mod != 0 || v.view.St != SpecOwned || w.view.St != SpecOwned {
				return h.violation(la, "duplicate owners of version %d: %s and %s", v.view.Mod, v, w)
			}
			if v.view.Data != w.view.Data {
				return h.violation(la, "duplicate S-O(0,·) owners diverge: %s vs %s", v, w)
			}
		}
		// Against the next distinct version: superseded, bounded ranges.
		next := vid.V(0)
		for _, w := range owners[i+1:] {
			if w.view.Mod > v.view.Mod {
				next = w.view.Mod
				break
			}
		}
		if next == 0 {
			continue // v belongs to the highest version group
		}
		if v.view.St.latest() {
			return h.violation(la, "latest version %s below resident version %d", v, next)
		}
		if v.view.High > next {
			return h.violation(la, "version ranges overlap: %s spills past next version %d", v, next)
		}
	}
	if len(owners) > 0 && latest == 0 {
		return h.violation(la, "version chain has no latest version (top is %s)", owners[len(owners)-1])
	}

	// Invariant 7 for S-S copies: serveable copies mirror their owner, or
	// memory when the owner's committed copy was written back (§5.4).
	for _, v := range copies {
		if v.view.Mod >= v.view.High {
			continue // capped/empty range: never serves, stale data legal
		}
		var owner *sanView
		for _, o := range owners {
			if o.view.Mod == v.view.Mod {
				owner = o
				break
			}
		}
		switch {
		case owner != nil:
			if v.view.Data != owner.view.Data {
				return h.violation(la, "S-S copy %s diverges from owner %s", v, owner)
			}
		case v.view.Mod != 0:
			return h.violation(la, "serveable S-S copy %s has no resident owner", v)
		case len(nonSpec) > 0:
			// The owner settled to a non-speculative state (possibly
			// in another cache): the copy mirrors committed data.
			if v.view.Data != nonSpec[0].view.Data {
				return h.violation(la, "ownerless S-S copy %s diverges from committed copy %s", v, nonSpec[0])
			}
		default:
			// The owner's committed copy was written back (§5.4).
			if mem := h.mem.read(la); v.view.Data != mem {
				return h.violation(la, "ownerless S-S copy %s does not match memory", v)
			}
		}
	}
	return nil
}

// String renders every valid line in the hierarchy (plus the coherence
// registers), the dump attached to sanitizer violation reports.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hierarchy{epoch=%d lc=%d overflow=%v}\n", h.epoch, h.lc, h.pendingOverflow)
	for _, c := range h.allCaches() {
		n := 0
		for si := range c.sets {
			set := c.sets[si]
			for wi := range set {
				if set[wi].St != Invalid {
					n++
				}
			}
		}
		fmt.Fprintf(&b, "  %s: %d valid lines (lruClock=%d)\n", c.name, n, c.lruClock)
		for si := range c.sets {
			set := c.sets[si]
			for wi := range set {
				ln := &set[wi]
				if ln.St == Invalid {
					continue
				}
				fmt.Fprintf(&b, "    set %4d way %2d: %#10x %-9s epoch=%d slc=%d shadow=(%d,%d) lru=%d\n",
					si, wi, ln.Tag, ln.String(), ln.Epoch, ln.SettledLC, ln.ShadowHigh, ln.ShadowEpoch, ln.lru)
			}
		}
	}
	fmt.Fprintf(&b, "  memory: %d lines resident\n", h.mem.lines)
	return b.String()
}
