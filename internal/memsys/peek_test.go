package memsys

import (
	"bytes"
	"testing"

	"hmtx/internal/vid"
)

// PeekWord operations: two bytes each, laid out as the set-growth operations
// are. The first byte selects the kind (modulo pkKinds) and, divided by
// pkKinds, the core or cache; the second the line of peekLines (low 5 bits)
// and the VID offset above the LC VID (high 3 bits, 0 for non-speculative).
// A poke writes the offset times the operation's number, so an offset of 0
// writes a zero word.
const (
	pkLoad byte = iota
	pkStore
	pkEvict
	pkCommit // Commit of LC+1, or VIDReset once the epoch is used up
	pkAbort
	pkPoke
	pkKinds
)

// peekLines are the lines FuzzPeekWord touches: the lines on both sides of
// the first few memory-chunk seams, and the top chunk of the address space
// with the end of the chunk below it.
var peekLines = func() (ls [32]Addr) {
	low := []Addr{0, 1, 2, 6, 7, 8, 9, 14, 15, 16, 17, 23, 24, 31, 32, 63, 64, 65}
	for i, n := range low {
		ls[i] = n * LineSize
	}
	for i := len(low); i < len(ls); i++ {
		ls[i] = seamTop - Addr(i-len(low))*LineSize
	}
	return ls
}()

// peekConfig is the fuzzed machine: two cores and 3-bit VIDs, with small
// caches so lines are written back often. pow2 picks 2-set L1s and an 8-set
// L2, whose set indexes are masks; otherwise 3-set L1s and a 5-set L2 take
// the modulo.
func peekConfig(pow2 bool) Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.L1Size, cfg.L1Ways = 3*2*LineSize, 2
	cfg.L2Size, cfg.L2Ways = 5*4*LineSize, 4
	if pow2 {
		cfg.L1Size, cfg.L2Size = 2*2*LineSize, 8*4*LineSize
	}
	cfg.VIDSpace = vid.Space{Bits: 3}
	cfg.Sanitize = true
	return cfg
}

type peekOp struct {
	kind, who, line, off byte
}

func decodePeek(data []byte) []peekOp {
	ops := make([]peekOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, peekOp{
			kind: data[i] % pkKinds,
			who:  data[i] / pkKinds % 3,
			line: data[i+1] & 31,
			off:  data[i+1] >> 5,
		})
	}
	return ops
}

// apply runs op number seq on h, aborting every transaction on a conflict
// as the engine does. A poke of a line some cache holds speculatively is
// skipped: PokeWord forbids it.
func (op peekOp) apply(h *Hierarchy, seq int) {
	addr := peekLines[op.line] + Addr(seq%(LineSize/WordSize))*WordSize
	v := vid.NonSpec
	if op.off != 0 {
		if top := h.cfg.VIDSpace.Max(); h.lc < top {
			v = min(h.lc+vid.V(op.off), top)
		}
	}
	core := int(op.who) % h.cfg.Cores
	var res Result
	switch op.kind {
	case pkLoad:
		_, res = h.Load(core, addr, v)
	case pkStore:
		res = h.Store(core, addr, uint64(seq+1), v)
	case pkEvict:
		_, res = h.Evict(int(op.who), addr)
	case pkCommit:
		if h.lc < h.cfg.VIDSpace.Max() {
			res = h.Commit(h.lc + 1)
		} else {
			res = h.VIDReset()
		}
	case pkAbort:
		res = h.AbortAll()
	case pkPoke:
		for i := range h.all {
			for _, ln := range h.Versions(i, addr) {
				if ln.St.Speculative() {
					return
				}
			}
		}
		h.PokeWord(addr, uint64(op.off)*uint64(seq+1))
	}
	if res.Conflict {
		h.AbortAll()
	}
}

// peekAll is PeekWord without the snoop filter: it scans every cache.
func peekAll(h *Hierarchy, addr Addr) uint64 {
	la := LineAddr(addr)
	var word uint64
	bestRank := -1
	var cp Line
	for _, c := range h.all {
		ways := c.sets[c.setIndex(la)]
		for i := range ways {
			ln := &ways[i]
			if ln.St == Invalid || ln.Tag != la {
				continue
			}
			if ln = h.view(ln, &cp); ln == nil || !ln.serves(h.lc, false) {
				continue
			}
			if r := stateRank(ln.St); r > bestRank {
				word, bestRank = ln.Word(addr), r
			}
		}
	}
	if bestRank < 0 {
		return h.mem.word(addr)
	}
	return word
}

// peekShape counts what a run did that the checks can see: PeekWord answers
// a cache gave that memory does not hold, steps that wrote a line back to
// memory, and pokes of zero.
type peekShape struct{ fromCache, writebacks, zeroPokes int }

// checkPeek runs data's operations on a machine picked by data[0] and after
// every operation requires
//   - PeekWord to equal peekAll on every word of every line of peekLines,
//     on the machine and on a restore of its exact encoding;
//   - main memory to agree with a map of lines: the lines the encoding
//     lists, ascending and as many as memory counts, read back as listed,
//     no line outside them holds data, a line once present stays present,
//     and a line changes only under a poke of it or a writeback;
//   - the restore to re-encode to the same bytes.
func checkPeek(t *testing.T, data []byte) peekShape {
	t.Helper()
	if len(data) == 0 {
		return peekShape{}
	}
	cfg := peekConfig(data[0]%2 == 0)
	h := New(cfg)
	model := map[Addr][LineSize]byte{}
	var shape peekShape
	for seq, op := range decodePeek(data[1:]) {
		writes := h.stats.MemWrites
		op.apply(h, seq)
		if h.stats.MemWrites > writes {
			shape.writebacks++
		}
		if op.kind == pkPoke && op.off == 0 {
			shape.zeroPokes++
		}

		addrs, lines := exactMemory(t, h)
		if len(addrs) != h.mem.lines {
			t.Fatalf("op %d %+v: the encoding lists %d memory lines, memory counts %d", seq, op, len(addrs), h.mem.lines)
		}
		for i, a := range addrs {
			if i > 0 && a <= addrs[i-1] {
				t.Fatalf("op %d %+v: the encoding lists memory line %#x after %#x", seq, op, a, addrs[i-1])
			}
			if got := h.mem.read(a); got != lines[a] {
				t.Fatalf("op %d %+v: memory line %#x reads %x, the encoding lists %x", seq, op, a, got, lines[a])
			}
		}
		for a, old := range model {
			now, ok := lines[a]
			switch {
			case !ok:
				t.Fatalf("op %d %+v: memory line %#x is no longer present", seq, op, a)
			case now != old && h.stats.MemWrites == writes && !(op.kind == pkPoke && LineAddr(peekLines[op.line]) == a):
				t.Fatalf("op %d %+v: memory line %#x changed with no poke of it and no writeback", seq, op, a)
			}
		}
		model = lines

		enc := h.AppendExact(nil)
		back := New(cfg)
		if err := back.RestoreExact(enc); err != nil {
			t.Fatalf("op %d %+v: %v", seq, op, err)
		}
		if !bytes.Equal(back.AppendExact(nil), enc) {
			t.Fatalf("op %d %+v: the restored machine re-encodes differently", seq, op)
		}
		for _, la := range peekLines {
			if _, ok := lines[la]; !ok && h.mem.read(la) != [LineSize]byte{} {
				t.Fatalf("op %d %+v: memory line %#x is not listed but holds data", seq, op, la)
			}
			for w := Addr(0); w < LineSize; w += WordSize {
				want := peekAll(h, la+w)
				if got := h.PeekWord(la + w); got != want {
					t.Fatalf("op %d %+v: PeekWord(%#x) = %d, a scan of every cache %d", seq, op, la+w, got, want)
				}
				if got := back.PeekWord(la + w); got != want {
					t.Fatalf("op %d %+v: restored PeekWord(%#x) = %d, want %d", seq, op, la+w, got, want)
				}
				if want != h.mem.word(la+w) {
					shape.fromCache++
				}
			}
		}
	}
	return shape
}

// Seed-corpus builders: one byte pair per operation.
func pkOp(kind byte, who int, line, off byte) []byte {
	return []byte{kind + byte(who)*pkKinds, off<<5 | line}
}
func pkLd(core int, line, off byte) []byte { return pkOp(pkLoad, core, line, off) }
func pkSt(core int, line, off byte) []byte { return pkOp(pkStore, core, line, off) }
func pkEv(cache int, line byte) []byte     { return pkOp(pkEvict, cache, line, 0) }
func pkPk(line, off byte) []byte           { return pkOp(pkPoke, 0, line, off) }
func pkCommitOp() []byte                   { return pkOp(pkCommit, 0, 0, 0) }
func pkAbortOp() []byte                    { return pkOp(pkAbort, 0, 0, 0) }

// pkMachine is the leading byte of a seed: 0 for the power-of-two machine,
// 1 for the 3-set and 5-set one.
func pkMachine(pow2 bool) []byte {
	if pow2 {
		return []byte{0}
	}
	return []byte{1}
}

// Indexes into peekLines.
const (
	pkLine0     = 0  // line 0
	pkChunkLast = 4  // line 7, the last of chunk 0
	pkChunkNext = 5  // line 8, the first of chunk 1
	pkChunk2    = 10 // line 17, in chunk 2
	pkTop       = 18 // the top line of the address space
	pkTopChunk  = 25 // the first line of the top chunk
	pkBelowTop  = 26 // the last line of the chunk below it
)

var peekSeeds = []growthSeed{
	growthSeedOf("writebacks across a chunk seam",
		"machine: 2-set L1s and an 8-set L2", pkMachine(true),
		"core 0: pokes lines 7 and 8, one a zero word, and stores to them "+
			"and to line 0",
		sgSeq(pkPk(pkChunkLast, 3), pkPk(pkChunkNext, 0), pkSt(0, pkChunkLast, 0), pkSt(0, pkChunkNext, 0),
			pkSt(0, pkLine0, 0)),
		"core 0: evicts the dirty lines to the L2 and on to memory",
		sgSeq(pkEv(0, pkChunkLast), pkEv(2, pkChunkLast), pkEv(0, pkChunkNext), pkEv(2, pkChunkNext),
			pkEv(0, pkLine0), pkEv(2, pkLine0)),
		"core 1: reads them back, then writes line 17 and reads the seam again",
		sgSeq(pkLd(1, pkChunkLast, 0), pkLd(1, pkChunkNext, 0), pkSt(1, pkChunk2, 0), pkLd(1, pkLine0, 0)),
	),
	growthSeedOf("versions at the top of the address space",
		"machine: 3-set L1s and a 5-set L2", pkMachine(false),
		"core 0: pokes the top line and the first line of the top chunk",
		sgSeq(pkPk(pkTop, 2), pkPk(pkTopChunk, 5), pkPk(pkBelowTop, 0)),
		"cores 0 and 1: VIDs 1 and 2 write versions of both lines, and "+
			"core 1 reads the line below the top chunk",
		sgSeq(pkSt(0, pkTop, 1), pkSt(1, pkTop, 2), pkSt(0, pkTopChunk, 1), pkLd(1, pkBelowTop, 2),
			pkLd(1, pkTopChunk, 2)),
		"core 0: evicts a version to the L2; VID 1 commits, the rest abort",
		sgSeq(pkEv(0, pkTop), pkCommitOp(), pkLd(0, pkTop, 0), pkAbortOp(), pkLd(1, pkTopChunk, 0)),
		"both: non-speculative stores, evicted to memory",
		sgSeq(pkSt(0, pkTop, 0), pkEv(0, pkTop), pkEv(2, pkTop), pkSt(1, pkBelowTop, 0), pkEv(1, pkBelowTop),
			pkEv(2, pkBelowTop), pkPk(pkTop, 1)),
	),
	growthSeedOf("commits through an epoch",
		"machine: 2-set L1s and an 8-set L2", pkMachine(true),
		"cores 0 and 1: VIDs 1 to 4 write lines 0, 7 and 8, which share "+
			"sets, spilling versions to the L2",
		sgSeq(pkSt(0, pkLine0, 1), pkSt(1, pkChunkLast, 2), pkSt(0, pkChunkNext, 3), pkSt(1, pkLine0, 4),
			pkLd(0, pkChunk2, 2), pkLd(1, pkChunkNext, 4)),
		"commits through the 3-bit epoch and a VID reset, reading between them",
		sgSeq(pkCommitOp(), pkLd(1, pkLine0, 0), pkCommitOp(), pkCommitOp(), pkLd(0, pkChunkNext, 0),
			pkCommitOp(), pkCommitOp(), pkCommitOp(), pkCommitOp(), pkCommitOp()),
		"after it: pokes of the committed lines and evictions to memory",
		sgSeq(pkPk(pkLine0, 0), pkPk(pkChunkNext, 6), pkEv(0, pkChunkNext), pkEv(2, pkChunkNext),
			pkEv(1, pkLine0), pkEv(2, pkLine0), pkLd(0, pkLine0, 0)),
	),
}

// FuzzPeekWord holds PeekWord, which visits only the caches the snoop filter
// names, to a scan of every cache, and the chunked main memory to a map of
// lines and to its exact encoding (checkPeek). Each input picks a machine
// with power-of-two or other set counts and a sequence of loads, stores,
// evictions, commits, aborts and pokes at memory-chunk seams and the top of
// the address space.
func FuzzPeekWord(f *testing.F) {
	for _, s := range peekSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkPeek(t, data) })
}

// TestPeekWordSeeds runs every seed through checkPeek and requires each to
// write lines back to memory, poke a zero word, and have caches hold
// committed words that memory does not, so the checks are not vacuous.
func TestPeekWordSeeds(t *testing.T) {
	for _, s := range peekSeeds {
		t.Run(s.name, func(t *testing.T) {
			if shape := checkPeek(t, s.data); shape.fromCache == 0 || shape.writebacks == 0 || shape.zeroPokes == 0 {
				t.Errorf("seed did too little: %+v", shape)
			}
		})
	}
}
