// Package taintuser exercises detflow: nondeterminism sources laundered
// through taintlib must be reported when they reach simulation-visible
// state, and only then.
package taintuser

import (
	"encoding/json"
	"fmt"
	"sort"

	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"taintlib"
)

// InterproceduralMapLeak is the seeded self-test of ISSUE 6: the map
// iteration order escapes through a helper in another package and lands in
// a simulation-visible field.
func InterproceduralMapLeak(h *memsys.Hierarchy, m map[string]int) {
	k := taintlib.FirstKey(m)
	h.Note = k // want `nondeterministic value \(map iteration order\) flows into simulation-visible field Hierarchy\.Note`
}

// MetricsSeriesName stores a map-order key into a metrics series: the
// series document is simulation output like the memory system's state.
func MetricsSeriesName(s *metrics.Series, m map[string]int) {
	s.Name = taintlib.FirstKey(m) // want `nondeterministic value \(map iteration order\) flows into simulation-visible field Series\.Name`
}

// DoubleLaundered pushes the taint through two helpers.
func DoubleLaundered(h *memsys.Hierarchy, m map[string]int) {
	k := taintlib.Passthrough(taintlib.FirstKey(m))
	h.Lines[0].Note = k // want `nondeterministic value \(map iteration order\) flows into simulation-visible field Line\.Note`
}

// ParamSinkCall reaches the sink inside the callee: the finding lands at
// the call site, where the nondeterministic argument is.
func ParamSinkCall(h *memsys.Hierarchy, m map[string]int) {
	k := taintlib.FirstKey(m)
	h.SetNote(k) // want `nondeterministic value \(map iteration order\) flows into simulation-visible field Hierarchy\.Note \(inside SetNote\)`
}

// WallClockSeed stores a laundered wall-clock read into a composite
// literal of a simulation-visible struct.
func WallClockSeed() memsys.Hierarchy {
	t := taintlib.Stamp()
	return memsys.Hierarchy{Seed: t} // want `nondeterministic value \(wall-clock time\) flows into simulation-visible struct Hierarchy`
}

// SelectOrder binds a value under select: which arm ran is scheduler
// dependent.
func SelectOrder(h *memsys.Hierarchy, a, b chan int) {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	h.Lines[0].State = v // want `nondeterministic value \(select arm ordering\) flows into simulation-visible field Line\.State`
}

// PointerText formats an address; the text is unstable across runs.
func PointerText(h *memsys.Hierarchy) {
	s := fmt.Sprintf("%p", h)
	h.Note = s // want `nondeterministic value \(pointer-formatted address \(%p\)\) flows into simulation-visible field Hierarchy\.Note`
}

// JSONLeak marshals a tainted value: JSON documents are compared
// byte-for-byte in CI.
func JSONLeak(m map[string]int) []byte {
	k := taintlib.FirstKey(m)
	out, _ := json.Marshal(k) // want `nondeterministic value \(map iteration order\) flows into JSON output`
	return out
}

// SortedIsClean collects map keys, sorts them, and uses them: the blessed
// deterministic-iteration pattern must not be flagged.
func SortedIsClean(h *memsys.Hierarchy, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.Note = keys[0]
}

// FoldIsClean sums map values: a commutative integer fold is
// order-insensitive, like detrange's accumulation exemption.
func FoldIsClean(h *memsys.Hierarchy, m map[string]int) {
	h.Lines[0].State = taintlib.Sum(m)
}

// Waived carries an annotation with a reason: the finding is suppressed.
func Waived(h *memsys.Hierarchy, m map[string]int) {
	h.Note = taintlib.FirstKey(m) //hmtx:detsafe fixture: order feeds a debug label only
}

// WaivedAbove carries the annotation on its own line above the flagged
// statement: also suppressed.
func WaivedAbove(h *memsys.Hierarchy, m map[string]int) {
	//hmtx:detsafe fixture: an own-line annotation covers the next line
	h.Note = taintlib.FirstKey(m)
}

// MissingReason has an annotation without a reason: still suppressed, but
// the annotation itself is reported.
func MissingReason(h *memsys.Hierarchy, m map[string]int) {
	h.Note = taintlib.FirstKey(m) /*hmtx:detsafe*/ // want `//hmtx:detsafe annotation needs a reason`
}

// Stale carries an annotation on a line with no finding.
func Stale(h *memsys.Hierarchy) {
	h.Note = "constant" /*hmtx:detsafe fixture: nothing here*/ // want `stale //hmtx:detsafe annotation`
}

// PureUseIsClean passes tainted values to a pure function and discards the
// relationship before any sink.
func PureUseIsClean(h *memsys.Hierarchy, m map[string]int) {
	n := memsys.Blend(len(m), 7)
	h.Lines[0].State = n
}
