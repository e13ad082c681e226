// Package check is a Murphi-style explicit-state model checker for the HMTX
// coherence protocol. It enumerates every configuration of a small bounded
// system — a few cores, line addresses and VIDs under a nondeterministic
// stimulus alphabet — reachable by driving the *real* internal/memsys
// implementation, not a re-specification: each explored edge deep-copies the
// hierarchy (memsys snapshot support), applies one stimulus, asserts the
// MOESI-San invariants plus end-to-end value properties against a sequential
// oracle, and canonicalizes the result for the visited set (DESIGN.md §12).
//
// The search is breadth-first, so the first property violation found is
// reported with a shortest stimulus trace, replayable with Config.Replay.
// Everything is deterministic: same bounds, byte-identical output.
package check

import (
	"fmt"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// Config bounds the checked system and selects the stimulus alphabet.
type Config struct {
	// Cores is the number of cores/L1 caches (≥ 2 for cross-core traffic).
	Cores int
	// Addrs is the number of distinct line addresses stimuli may access.
	// All of them map to the same cache set, maximising version pressure.
	Addrs int
	// VIDs is the number of speculative transaction VIDs (1..VIDs); VID 0
	// is non-speculative execution.
	VIDs int
	// StoreVals is the number of distinct values stores may write (1..N).
	// Two suffices to distinguish versions; more widens the value space.
	StoreVals uint64
	// WrongPath adds squashed wrong-path loads (§5.1) to the alphabet.
	WrongPath bool
	// Evict adds forced evictions (capacity pressure, §5.4) to the
	// alphabet, from every cache and for every bounded address.
	Evict bool
	// L1Ways and L2Ways size the single-set caches (defaults 2 and 4).
	L1Ways, L2Ways int
	// MaxStates bounds the visited set; 0 means DefaultMaxStates. If the
	// bound is hit, Summary.Exhausted reports the truncation.
	MaxStates int
	// MaxDepth bounds the BFS depth; 0 means unbounded.
	MaxDepth int
	// InjectBug forwards a memsys.Bug* constant, deliberately re-breaking
	// a fixed protocol bug so tests can assert the checker finds it.
	InjectBug string
}

// DefaultMaxStates caps the visited set when Config.MaxStates is zero.
const DefaultMaxStates = 1 << 21

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Addrs == 0 {
		c.Addrs = 1
	}
	if c.VIDs == 0 {
		c.VIDs = 1
	}
	if c.StoreVals == 0 {
		c.StoreVals = 2
	}
	if c.L1Ways == 0 {
		c.L1Ways = 2
	}
	if c.L2Ways == 0 {
		c.L2Ways = 4
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	return c
}

// Validate reports whether the bounds are usable.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > 8:
		return fmt.Errorf("check: Cores must be in 1..8, got %d", c.Cores)
	case c.Addrs < 1 || c.Addrs > 8:
		return fmt.Errorf("check: Addrs must be in 1..8, got %d", c.Addrs)
	case c.VIDs < 1 || c.VIDs > 15:
		return fmt.Errorf("check: VIDs must be in 1..15, got %d", c.VIDs)
	case c.StoreVals < 1 || c.StoreVals > 8:
		return fmt.Errorf("check: StoreVals must be in 1..8, got %d", c.StoreVals)
	case c.L1Ways < 1 || c.L2Ways < 1:
		return fmt.Errorf("check: cache ways must be positive")
	case c.MaxStates < 0 || c.MaxDepth < 0:
		return fmt.Errorf("check: negative bound")
	case c.InjectBug != "" && c.InjectBug != memsys.BugDupVersionOnMigrate && c.InjectBug != memsys.BugStaleCopyOnConvert:
		return fmt.Errorf("check: unknown InjectBug %q", c.InjectBug)
	}
	return nil
}

// memsysConfig builds the bounded hardware the checker drives: single-set
// caches (so the bounded addresses all contend), unit latencies (timing is
// irrelevant to reachability), MOESI-San always on.
func (c Config) memsysConfig() memsys.Config {
	bits := 1
	for (1<<bits)-1 < c.VIDs {
		bits++
	}
	return memsys.Config{
		Cores:      c.Cores,
		L1Size:     c.L1Ways * memsys.LineSize,
		L1Ways:     c.L1Ways,
		L2Size:     c.L2Ways * memsys.LineSize,
		L2Ways:     c.L2Ways,
		L1Lat:      1,
		L2Lat:      1,
		MemLat:     1,
		BusLat:     1,
		VIDSpace:   vid.Space{Bits: uint(bits)},
		SLAEnabled: true,
		Sanitize:   true,
		InjectBug:  c.InjectBug,
	}
}

// violation is a property failure: the checker's terminal finding.
type violation struct {
	Property string // "invariant", "value", "linearization" or "abort-erasure"
	Detail   string
}

func (v *violation) Error() string { return v.Property + ": " + v.Detail }

// lineAddrs returns the bounded line addresses, the scope of canonical
// encodings and property probes.
func (c Config) lineAddrs() []memsys.Addr {
	addrs := make([]memsys.Addr, c.Addrs)
	for i := range addrs {
		addrs[i] = addrOf(i)
	}
	return addrs
}

// applyStimulus applies s to (h, o) in place and checks every property on
// the resulting state. A Result.Conflict makes the edge compound: the
// hierarchy demands an abort, so AbortAll follows atomically, exactly as the
// engine reacts (engine aborts all uncommitted transactions on any conflict).
// Panics — MOESI-San assertions, findHit double-hit detection — are
// converted into invariant violations. The returned note annotates the edge
// for counterexample traces.
func (c Config) applyStimulus(h *memsys.Hierarchy, o *oracle, s Stimulus) (note string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &violation{Property: "invariant", Detail: fmt.Sprint(r)}
		}
	}()

	ai := int(s.Addr / memsys.LineSize)
	aborted := false
	handleConflict := func(res memsys.Result) bool {
		if !res.Conflict {
			return false
		}
		h.AbortAll()
		o.abortAll()
		aborted = true
		note = "conflict (" + res.Cause + ") -> abort-all"
		return true
	}

	switch s.Op {
	case OpLoad:
		eff := s.VID
		if eff == vid.NonSpec {
			eff = h.LC()
		}
		val, res := h.Load(s.Core, s.Addr, s.VID)
		if !handleConflict(res) {
			if want := o.visible(ai, eff); val != want {
				return note, &violation{
					Property: "value",
					Detail:   fmt.Sprintf("load core %d line %#x vid %d returned %d, oracle expects %d", s.Core, s.Addr, s.VID, val, want),
				}
			}
		}
	case OpStore:
		res := h.Store(s.Core, s.Addr, s.Val, s.VID)
		if !handleConflict(res) {
			o.store(ai, s.VID, s.Val)
		}
	case OpWrongPath:
		// The architectural value of a squashed load is irrelevant; the
		// stimulus only matters for the shadow/SLA machinery it drives.
		_, res := h.WrongPathLoad(s.Core, s.Addr, s.VID)
		handleConflict(res)
	case OpCommit:
		h.Commit(s.VID)
		o.commit(s.VID)
	case OpAbortAll:
		h.AbortAll()
		o.abortAll()
		aborted = true
	case OpEvict:
		if ok, res := h.Evict(s.Cache, s.Addr); ok {
			handleConflict(res)
		}
	case OpVIDReset:
		// Legal only once every VID of the epoch has committed (§4.6);
		// the enumeration guarantees LC == VIDs here, so the oracle has
		// no outstanding writes left to carry over.
		h.VIDReset()
	}

	// Property: committed-value linearization. The committed image the
	// hierarchy serves to a non-speculative observer must always equal the
	// oracle's — this is also what makes lost speculative writes visible
	// the moment their transaction commits. The lines are settled first, so
	// that two paths to the same state leave the same resident lines and
	// the state fingerprint merges them.
	for i := 0; i < c.Addrs; i++ {
		h.Settle(addrOf(i))
		if got, want := h.PeekWord(addrOf(i)), o.committed[i]; got != want {
			return note, &violation{
				Property: "linearization",
				Detail:   fmt.Sprintf("committed value at line %#x is %d, oracle expects %d", addrOf(i), got, want),
			}
		}
	}

	if aborted {
		if err := c.abortErasure(h); err != nil {
			return note, err
		}
	}

	// Property: the full MOESI-San invariant set (1..8) over the whole
	// hierarchy, not just the lines the stimulus touched.
	if ierr := h.CheckInvariants(); ierr != nil {
		return note, &violation{Property: "invariant", Detail: ierr.Error()}
	}
	return note, nil
}

// abortErasure checks that abort erased all VID-tagged state (§4.4): no
// speculative line and no wrong-path shadow mark survives an abort sweep.
// It reports the first line that does, cache by cache.
func (c Config) abortErasure(h *memsys.Hierarchy) error {
	for ci := 0; ci <= c.Cores; ci++ {
		for i := 0; i < c.Addrs; i++ {
			for _, ln := range h.Versions(ci, addrOf(i)) {
				if ln.St.Speculative() || ln.ShadowHigh != 0 {
					return &violation{
						Property: "abort-erasure",
						Detail:   fmt.Sprintf("cache %d line %#x still holds %s after abort", ci, addrOf(i), ln.String()),
					}
				}
			}
		}
	}
	return nil
}

// edge records how a state was first reached, for counterexample paths.
type edge struct {
	parent int32
	depth  int32
	stim   Stimulus
}

// qent is a frontier entry: the materialised simulator state of a node.
// Expanded entries are zeroed so the BFS only retains the frontier's clones.
type qent struct {
	idx int32
	h   *memsys.Hierarchy
	o   *oracle
}

// Run explores the bounded state space to exhaustion (or to the state/depth
// bounds) and reports what it found. The error return is for invalid
// configurations only; property violations are reported in the Summary.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	addrs := cfg.lineAddrs()
	sum := &Summary{Config: cfg}

	h0 := memsys.New(cfg.memsysConfig())
	o0 := newOracle(cfg.Addrs, cfg.VIDs)
	visited := map[string]struct{}{canonOf(h0, o0, addrs): {}}
	nodes := []edge{{parent: -1}}
	queue := []qent{{idx: 0, h: h0, o: o0}}

	var stimBuf []Stimulus
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		queue[head] = qent{} // release the clone once expanded
		depth := nodes[cur.idx].depth
		if cfg.MaxDepth > 0 && int(depth) >= cfg.MaxDepth {
			continue
		}
		if len(nodes) >= cfg.MaxStates {
			sum.Truncated = true
			break
		}
		stimBuf = cfg.enabled(cur.h.LC(), stimBuf)
		for _, s := range stimBuf {
			nh := cur.h.Clone()
			no := cur.o.clone()
			sum.Edges++
			_, err := cfg.applyStimulus(nh, no, s)
			if err != nil {
				sum.States = len(visited)
				sum.Violation = cfg.buildCounterexample(nodes, cur.idx, s, err)
				return sum, nil
			}
			key := canonOf(nh, no, addrs)
			if _, ok := visited[key]; ok {
				continue
			}
			visited[key] = struct{}{}
			nodes = append(nodes, edge{parent: cur.idx, depth: depth + 1, stim: s})
			queue = append(queue, qent{idx: int32(len(nodes) - 1), h: nh, o: no})
			if int(depth)+1 > sum.Depth {
				sum.Depth = int(depth) + 1
			}
		}
	}
	sum.States = len(visited)
	sum.Exhausted = !sum.Truncated
	return sum, nil
}

// canonOf builds the visited-set key: the exact canonical encoding (not a
// hash, so fingerprint collisions cannot silently merge distinct states) of
// the hierarchy plus the oracle.
func canonOf(h *memsys.Hierarchy, o *oracle, addrs []memsys.Addr) string {
	buf := h.AppendCanonical(nil, addrs)
	buf = o.appendCanon(buf)
	return string(buf)
}

// buildCounterexample reconstructs the shortest stimulus path to the failing
// edge and replays it from scratch to annotate each step.
func (c Config) buildCounterexample(nodes []edge, parent int32, failing Stimulus, err error) *Counterexample {
	var steps []Stimulus
	for i := parent; i > 0; i = nodes[i].parent {
		steps = append(steps, nodes[i].stim)
	}
	for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
		steps[l], steps[r] = steps[r], steps[l]
	}
	steps = append(steps, failing)
	ce := &Counterexample{Property: "unknown", Detail: err.Error(), Steps: steps}
	if v, ok := err.(*violation); ok {
		ce.Property, ce.Detail = v.Property, v.Detail
	}
	ce.Notes, _ = c.Replay(steps)
	return ce
}

// Replay re-runs a stimulus sequence from the initial state, returning the
// per-step notes (conflict annotations) and the first property violation hit,
// if any. Replaying a Counterexample's Steps must reproduce its violation on
// the final step; anything else means nondeterminism and is itself a bug.
func (c Config) Replay(steps []Stimulus) (notes []string, err error) {
	cfg := c.withDefaults()
	if verr := cfg.Validate(); verr != nil {
		return nil, verr
	}
	h := memsys.New(cfg.memsysConfig())
	o := newOracle(cfg.Addrs, cfg.VIDs)
	for _, s := range steps {
		note, serr := cfg.applyStimulus(h, o, s)
		notes = append(notes, note)
		if serr != nil {
			return notes, serr
		}
	}
	return notes, nil
}
