package memsys

import (
	"fmt"

	"hmtx/internal/obs"
	"hmtx/internal/vid"
)

// State is a cache line coherence state: the five MOESI states plus the four
// speculative states added by HMTX (§4.1).
type State uint8

// Coherence states. Modified/Owned are dirty, Exclusive/Shared clean;
// the Spec* states carry the (modVID, highVID) pair described in §4.1.
const (
	Invalid State = iota
	Modified
	Owned
	Exclusive
	Shared
	SpecModified  // S-M: latest speculative version, dirty on commit
	SpecOwned     // S-O: superseded speculative version, kept for lower VIDs
	SpecExclusive // S-E: latest version, clean; modVID is always 0
	SpecShared    // S-S: read-only copy of a version in another cache
)

// String names the state; the names live in obs, whose tracer spells a
// KStateChange event's transition with them.
func (s State) String() string { return obs.StateName(uint64(s)) }

// Speculative reports whether s is one of the four HMTX speculative states.
func (s State) Speculative() bool { return s >= SpecModified }

// dirty reports whether the line must eventually reach memory.
func (s State) dirty() bool {
	return s == Modified || s == Owned || s == SpecModified || s == SpecOwned
}

// latest reports whether s holds the latest speculative version of a line
// (hit rule: request VID >= modVID).
func (s State) latest() bool { return s == SpecModified || s == SpecExclusive }

// superseded reports whether s holds a bounded old version
// (hit rule: modVID <= request VID < highVID).
func (s State) superseded() bool { return s == SpecOwned || s == SpecShared }

// Line is one physical cache line. A cache set may hold several Lines with
// the same Tag but different (Mod, High) version ranges (§4.1).
type Line struct {
	Tag  Addr  // line-aligned address
	St   State // coherence state
	Mod  vid.V // modVID: VID of the speculative store that created this version
	High vid.V // highVID: highest VID to have accessed this version

	// Epoch is the VID epoch the line's VIDs belong to; lines from
	// earlier epochs are fully committed and settle on next touch (§4.6).
	Epoch uint64
	// SettledLC is the LC VID this line was last settled against; a line
	// with SettledLC below the cache's LC VID has a pending lazy commit,
	// the equivalent of the Committed Bit of §5.3.
	SettledLC vid.V

	// ShadowHigh/ShadowEpoch track marks that *would* have been made by
	// squashed wrong-path loads if SLAs were not filtering them (§5.1).
	// They exist only to count the false misspeculations SLAs avoid
	// (Table 1); they never influence protocol behaviour when SLAs are
	// enabled.
	ShadowHigh  vid.V
	ShadowEpoch uint64

	Data [LineSize]byte

	lru uint64 // LRU timestamp maintained by the owning cache
}

// String renders the line as in the paper's figures, e.g. "S-M(2,2)".
func (l *Line) String() string {
	if l == nil {
		return "<nil line>"
	}
	return fmt.Sprintf("%s(%d,%d)", l.St, l.Mod, l.High)
}

// Word returns the 8-byte word at addr, which must fall inside the line.
func (l *Line) Word(addr Addr) uint64 {
	off := addr - l.Tag
	if addr%WordSize != 0 || off >= LineSize {
		panic(fmt.Sprintf("memsys: misaligned or out-of-line word read at %#x (line %#x)", addr, l.Tag))
	}
	var v uint64
	for i := 0; i < WordSize; i++ {
		v |= uint64(l.Data[off+Addr(i)]) << (8 * i)
	}
	return v
}

// SetWord stores the 8-byte word val at addr inside the line.
func (l *Line) SetWord(addr Addr, val uint64) {
	off := addr - l.Tag
	if addr%WordSize != 0 || off >= LineSize {
		panic(fmt.Sprintf("memsys: misaligned or out-of-line word write at %#x (line %#x)", addr, l.Tag))
	}
	for i := 0; i < WordSize; i++ {
		l.Data[off+Addr(i)] = byte(val >> (8 * i))
	}
}

// applyCommit performs the commit state transitions of Figure 6 for a commit
// of every VID up to and including lc. Lines whose highVID is at most lc are
// no longer speculative at all; lines whose modVID is at most lc hold
// committed data but remain marked by later readers.
func (l *Line) applyCommit(lc vid.V) {
	if !l.St.Speculative() {
		return
	}
	if l.High <= lc {
		switch l.St {
		case SpecModified:
			l.St = Modified
		case SpecExclusive:
			l.St = Exclusive
		case SpecOwned, SpecShared:
			l.St = Invalid
		}
		l.Mod, l.High = 0, 0
		return
	}
	if l.Mod != 0 && l.Mod <= lc {
		l.Mod = 0
	}
}

// applyAbort performs the abort state transitions of Figure 7: versions
// created by uncommitted speculative stores are invalidated; unmodified
// lines merely shed their speculative markings.
func (l *Line) applyAbort() {
	if !l.St.Speculative() {
		return
	}
	if l.Mod != 0 {
		l.St = Invalid
		l.Mod, l.High = 0, 0
		return
	}
	switch l.St {
	case SpecModified:
		l.St = Modified
	case SpecExclusive:
		l.St = Exclusive
	case SpecOwned:
		l.St = Owned
	case SpecShared:
		// An S-S copy's owner may revert to Modified/Exclusive, which
		// asserts there are no other copies; dropping the copy (always
		// safe) preserves the MOESI invariants.
		l.St = Invalid
	}
	l.Mod, l.High = 0, 0
}

// settle lazily applies any pending commit to the line (§5.3). Aborts are
// processed eagerly by the hierarchy, so only commit processing is deferred.
// epoch and lc are the hierarchy's current VID epoch and latest committed
// VID.
func (l *Line) settle(epoch uint64, lc vid.V, maxV vid.V) {
	if l.settled(epoch, lc) {
		return
	}
	if l.St == Invalid || !l.St.Speculative() {
		l.Epoch, l.SettledLC = epoch, lc
		return
	}
	if l.Epoch < epoch {
		// A VID Reset ended the line's epoch; a reset is only legal
		// once every transaction of the epoch has committed (§4.6),
		// so the line settles as fully committed. This must be
		// unconditional: S-S re-snoop bounds can reach maxV+1, which
		// a plain applyCommit(maxV) would mistake for a live marking.
		switch l.St {
		case SpecModified:
			l.St = Modified
		case SpecExclusive:
			l.St = Exclusive
		case SpecOwned, SpecShared:
			l.St = Invalid
		}
		l.Mod, l.High = 0, 0
		l.Epoch, l.SettledLC = epoch, lc
		l.ShadowHigh, l.ShadowEpoch = 0, 0
		return
	}
	if l.SettledLC < lc {
		l.applyCommit(lc)
		l.SettledLC = lc
	}
}

// settled reports whether the line is already settled against the given
// epoch and LC registers, so that settle would leave it as it is.
func (l *Line) settled(epoch uint64, lc vid.V) bool {
	return l.Epoch == epoch && l.SettledLC == lc
}

// shadow returns the line's effective wrong-path shadow mark for the given
// epoch, which decays to zero across VID resets.
func (l *Line) shadow(epoch uint64) vid.V {
	if l.ShadowEpoch != epoch {
		return 0
	}
	return l.ShadowHigh
}
