package memsys

import (
	"bytes"
	"testing"

	"hmtx/internal/vid"
)

// Set-growth operations: two bytes each. The first byte selects the kind
// (modulo sgKinds) and, divided by sgKinds, the core or cache. The second
// selects the line (low 5 bits) and the VID offset above the LC VID (high
// 3 bits, 0 for non-speculative).
const (
	sgLoad byte = iota
	sgStore
	sgWrongPath
	sgCommit // Commit of LC+1, or VIDReset once the epoch is used up
	sgAbort
	sgEvict
	sgKinds
)

// growthConfig is the fuzzed machine: two cores, 8-way L1s and a 16-way L2,
// each with two sets, and 3-bit VIDs so epochs roll over.
func growthConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.L1Size, cfg.L1Ways = 2*8*LineSize, 8
	cfg.L2Size, cfg.L2Ways = 2*16*LineSize, 16
	cfg.VIDSpace = vid.Space{Bits: 3}
	cfg.Sanitize = true
	return cfg
}

// growthOp is one decoded operation.
type growthOp struct {
	kind, who, line, off byte
}

func decodeGrowth(data []byte) []growthOp {
	ops := make([]growthOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, growthOp{
			kind: data[i] % sgKinds,
			who:  data[i] / sgKinds % 3,
			line: data[i+1] & 31,
			off:  data[i+1] >> 5,
		})
	}
	return ops
}

// growthOutcome is what one operation returned.
type growthOutcome struct {
	val uint64
	res Result
}

// apply runs op number seq on h, aborting every transaction on a conflict
// as the engine does. Under MOESI-San a broken invariant panics, which
// fails the fuzz target like any difference.
func (op growthOp) apply(h *Hierarchy, seq int) (out growthOutcome) {
	addr := Addr(op.line)*LineSize + Addr(seq%(LineSize/WordSize))*WordSize
	v := vid.NonSpec
	if op.off != 0 {
		if top := h.cfg.VIDSpace.Max(); h.lc < top {
			v = min(h.lc+vid.V(op.off), top)
		}
	}
	core := int(op.who) % h.cfg.Cores
	switch op.kind {
	case sgLoad:
		out.val, out.res = h.Load(core, addr, v)
	case sgStore:
		out.res = h.Store(core, addr, uint64(seq+1), v)
	case sgWrongPath:
		out.val, out.res = h.WrongPathLoad(core, addr, v)
	case sgCommit:
		if h.lc < h.cfg.VIDSpace.Max() {
			out.res = h.Commit(h.lc + 1)
		} else {
			out.res = h.VIDReset()
		}
	case sgAbort:
		out.res = h.AbortAll()
	case sgEvict:
		_, out.res = h.Evict(int(op.who), addr)
	}
	if out.res.Conflict {
		h.AbortAll()
	}
	return out
}

// checkGrowth runs data on a growing and a full-set hierarchy and fails t on
// any difference. It returns the growing side after the last operation.
func checkGrowth(t *testing.T, data []byte) *Hierarchy {
	t.Helper()
	cfg := growthConfig()
	lazy, full := New(cfg), New(cfg)
	allocateAll(full)
	ops := decodeGrowth(data)
	for i, op := range ops {
		if i == len(ops)/2 {
			lazy = restoreShort(t, lazy)
		}
		got, want := op.apply(lazy, i), op.apply(full, i)
		if got != want {
			t.Fatalf("op %d %+v: growing sets gave %+v, full sets %+v", i, op, got, want)
		}
		if lazy.stats != full.stats {
			t.Fatalf("op %d %+v: statistics differ:\n%+v\n%+v", i, op, lazy.stats, full.stats)
		}
		if !bytes.Equal(lazy.AppendExact(nil), full.AppendExact(nil)) {
			t.Fatalf("op %d %+v: exact encoding differs from the full-set machine", i, op)
		}
	}
	return lazy
}

// restoreShort restores h's exact encoding into a new hierarchy and checks
// that every set comes back as long as it was: each way a set has used
// carries an LRU stamp, so only the unused ways are left off.
func restoreShort(t *testing.T, h *Hierarchy) *Hierarchy {
	t.Helper()
	back := New(h.cfg)
	if err := back.RestoreExact(h.AppendExact(nil)); err != nil {
		t.Fatal(err)
	}
	for i, c := range back.all {
		for si, s := range c.sets {
			if want := len(h.all[i].sets[si]); len(s) != want {
				t.Fatalf("%s set %d restored with %d ways, live set used %d", c.name, si, len(s), want)
			}
		}
	}
	return back
}

// Seed-corpus builders: one byte pair per operation. Lines of one parity
// share an L1 set and an L2 set.
func sgOp(kind byte, who int, line, off byte) []byte {
	return []byte{kind + byte(who)*sgKinds, off<<5 | line}
}
func sgLd(core int, line, off byte) []byte { return sgOp(sgLoad, core, line, off) }
func sgSt(core int, line, off byte) []byte { return sgOp(sgStore, core, line, off) }
func sgWP(core int, line, off byte) []byte { return sgOp(sgWrongPath, core, line, off) }
func sgEv(cache int, line byte) []byte     { return sgOp(sgEvict, cache, line, 0) }
func sgCommitOp() []byte                   { return sgOp(sgCommit, 0, 0, 0) }
func sgAbortOp() []byte                    { return sgOp(sgAbort, 0, 0, 0) }

// sgEach appends op(line) for every line in lines.
func sgEach(lines []byte, op func(line byte) []byte) []byte {
	var b []byte
	for _, l := range lines {
		b = append(b, op(l)...)
	}
	return b
}

// sgEven returns the first n even lines: all in set 0 of every cache.
func sgEven(n int) []byte {
	ls := make([]byte, n)
	for i := range ls {
		ls[i] = byte(2 * i)
	}
	return ls
}

type growthSeed struct {
	name string
	data []byte
}

// growthSeedOf builds a seed from its stages: alternating stage
// descriptions and the operations each stage appends, in the order a reader
// follows the scenario.
func growthSeedOf(name string, stages ...any) growthSeed {
	s := growthSeed{name: name}
	for i := 1; i < len(stages); i += 2 {
		s.data = append(s.data, stages[i].([]byte)...)
	}
	return s
}

var growthSeeds = []growthSeed{
	growthSeedOf("L1 set fills and spills",
		"core 0: loads twelve lines of one set, so its L1 set grows past "+
			"four ways to all eight and evicts four lines into the L2",
		sgEach(sgEven(12), func(l byte) []byte { return sgLd(0, l, 0) }),
		"core 1: reads them back, some from core 0's L1, some from the L2",
		sgEach(sgEven(12), func(l byte) []byte { return sgLd(1, l, 0) }),
	),
	growthSeedOf("L2 owner served while its set grows",
		"core 0: four lines pass through its L1 into L2 set 0",
		sgEach(sgEven(4), func(l byte) []byte { return sgSeq(sgLd(0, l, 0), sgEv(0, l)) }),
		"core 1: fills its L1 set with eight other lines of set 0",
		sgEach([]byte{8, 10, 12, 14, 16, 18, 20, 22}, func(l byte) []byte { return sgLd(1, l, 0) }),
		"core 1: loads an L2 line; installing it evicts an L1 victim into "+
			"the L2 set the owner sits in, growing it past four ways",
		sgLd(1, 0, 0),
	),
	growthSeedOf("versions spill into the L2",
		"cores 0 and 1: VIDs 1 to 6 each write a new version of line 0 "+
			"and read two lines of the same set",
		sgSeq(sgSt(0, 0, 1), sgLd(0, 2, 1), sgSt(1, 0, 2), sgLd(1, 4, 2), sgSt(0, 0, 3), sgLd(0, 6, 3),
			sgSt(1, 0, 4), sgLd(1, 8, 4), sgSt(0, 0, 5), sgLd(0, 10, 5), sgSt(1, 0, 6), sgLd(1, 12, 6)),
		"core 0: forces its versions out to the L2, then commits them in order",
		sgSeq(sgEv(0, 0), sgEv(0, 0), sgEv(0, 0), sgCommitOp(), sgCommitOp(), sgCommitOp()),
		"core 1: reads the line as the next transaction",
		sgSeq(sgLd(1, 0, 1), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp()),
	),
	growthSeedOf("speculative overflow",
		"core 0: VID 1 writes the sixteen lines of set 0; each old copy "+
			"leaves as an S-O(0,1) writeback",
		sgEach(sgEven(16), func(l byte) []byte { return sgSt(0, l, 1) }),
		"core 1: VID 2 writes them again, then VID 3 writes four more "+
			"versions, until a version must leave the full L2 set and the "+
			"overflow aborts",
		sgSeq(sgEach(sgEven(16), func(l byte) []byte { return sgSt(1, l, 2) }),
			sgEach(sgEven(4), func(l byte) []byte { return sgSt(0, l, 3) })),
		"both cores: re-read lines of both sets non-speculatively",
		sgEach(sgEven(10), func(l byte) []byte { return sgSeq(sgLd(0, l, 0), sgLd(1, l+1, 0)) }),
	),
	growthSeedOf("wrong-path loads across an epoch",
		"core 1: wrong-path loads of six lines of set 1 under VIDs 1 to 3",
		sgSeq(sgWP(1, 1, 1), sgWP(1, 3, 2), sgWP(1, 5, 3), sgWP(1, 7, 1), sgWP(1, 9, 2), sgWP(1, 11, 3)),
		"core 0: stores to the same lines, then commits seven times, "+
			"using up the 3-bit epoch, and resets the VIDs",
		sgSeq(sgEach([]byte{1, 3, 5, 7, 9}, func(l byte) []byte { return sgSt(0, l, 1) }),
			sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(),
			sgCommitOp()),
		"both cores: read and evict the lines in the new epoch, then abort",
		sgSeq(sgLd(0, 1, 1), sgLd(1, 3, 2), sgEv(2, 1), sgEv(1, 3), sgLd(0, 13, 0), sgAbortOp()),
	),
}

// sgSeq concatenates operations.
func sgSeq(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// FuzzSetGrowth holds sets that grow on demand to sets allocated whole. Each
// input decodes to a sequence of operations on a small machine with many
// ways per set, run on one hierarchy built normally and one whose sets
// allocateAll made full-length first; after every operation both must give
// the same values, results, statistics and exact encoding. Halfway through,
// the growing side is replaced by a restore of its own encoding, so the
// second half runs on the short sets a restore allocates.
func FuzzSetGrowth(f *testing.F) {
	for _, s := range growthSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkGrowth(t, data) })
}

// TestSetGrowthSeeds runs every seed through the differential check and
// requires each to grow some set past its first allocation, so the check is
// not vacuous.
func TestSetGrowthSeeds(t *testing.T) {
	for _, s := range growthSeeds {
		t.Run(s.name, func(t *testing.T) {
			h := checkGrowth(t, s.data)
			grown := 0
			for _, c := range h.all {
				for _, s := range c.sets {
					grown = max(grown, len(s))
				}
			}
			if grown <= firstWays {
				t.Errorf("no set grew past %d ways (longest %d)", firstWays, grown)
			}
		})
	}
}
