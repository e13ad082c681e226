package memsys

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hmtx/internal/vid"
)

// sparseConfig is the machine FuzzSparseExact drives: 8-set L1s and a
// 64-set L2, so the 32 lines of the set-growth operations never reach half
// of the L2 sets, which stay gaps, and 3-bit VIDs so epochs roll over.
func sparseConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.L1Size, cfg.L1Ways = 8*2*LineSize, 2
	cfg.L2Size, cfg.L2Ways = 64*4*LineSize, 4
	cfg.VIDSpace = vid.Space{Bits: 3}
	cfg.Sanitize = true
	return cfg
}

// sparseShape counts, at the capture point, the sets a sparse form leaves
// as gaps and the sets it holds only some ways of.
type sparseShape struct{ nilSets, partSets int }

// checkSparse runs the first half of data's operations on a machine of two
// or three cores (data[0] picks), then requires the sparse form of its exact
// encoding to be AppendExact's bytes and a restore from either form to give
// the same exact encoding, sets as long as the live ones, and the same
// fingerprint. The second half then runs on the live machine and on both
// restored ones, which must agree after every operation.
func checkSparse(t *testing.T, data []byte) sparseShape {
	t.Helper()
	if len(data) == 0 {
		return sparseShape{}
	}
	cfg := sparseConfig(2 + int(data[0])%2)
	live := New(cfg)
	ops := decodeGrowth(data[1:])
	half := len(ops) / 2
	for i, op := range ops[:half] {
		op.apply(live, i)
	}
	var shape sparseShape
	for _, c := range live.all {
		for _, s := range c.sets {
			switch {
			case len(s) == 0:
				shape.nilSets++
			case len(s) < c.ways:
				shape.partSets++
			}
		}
	}

	sp, dense := live.SparseExact(), live.AppendExact(nil)
	if !bytes.Equal(sp.AppendDense(nil), dense) {
		t.Fatal("the sparse form's dense bytes are not AppendExact's")
	}
	if err := CheckExact(cfg, sp); err != nil {
		t.Fatalf("CheckExact refused the sparse form: %v", err)
	}
	fromSparse, fromDense := New(cfg), New(cfg)
	if err := fromSparse.RestoreSparse(sp); err != nil {
		t.Fatal(err)
	}
	if err := fromDense.RestoreExact(dense); err != nil {
		t.Fatal(err)
	}
	addrs := live.Addrs()
	for _, back := range []*Hierarchy{fromSparse, fromDense} {
		if !bytes.Equal(back.AppendExact(nil), dense) {
			t.Fatal("a restored machine encodes differently")
		}
		if got, want := back.Fingerprint(addrs), live.Fingerprint(addrs); got != want {
			t.Fatalf("restored fingerprint %#x, live %#x", got, want)
		}
		for i, c := range back.all {
			for si, s := range c.sets {
				if want := len(live.all[i].sets[si]); len(s) != want {
					t.Fatalf("%s set %d restored with %d ways, live set used %d", c.name, si, len(s), want)
				}
			}
		}
	}

	for i, op := range ops[half:] {
		seq := half + i
		want := op.apply(live, seq)
		for _, back := range []*Hierarchy{fromSparse, fromDense} {
			if got := op.apply(back, seq); got != want {
				t.Fatalf("op %d %+v: resumed machine gave %+v, live %+v", seq, op, got, want)
			}
			if back.stats != live.stats {
				t.Fatalf("op %d %+v: statistics differ:\n%+v\n%+v", seq, op, back.stats, live.stats)
			}
		}
	}
	end := live.AppendExact(nil)
	for _, back := range []*Hierarchy{fromSparse, fromDense} {
		if !bytes.Equal(back.AppendExact(nil), end) {
			t.Fatal("a resumed machine ends in another exact state than the live one")
		}
	}
	return shape
}

// spCores is the leading byte of a sparse seed: its machine's core count.
func spCores(n int) []byte { return []byte{byte(n - 2)} }

var sparseSeeds = []growthSeed{
	growthSeedOf("versions and copies on three cores",
		"machine: three cores", spCores(3),
		"cores 0 to 2: VIDs 1 to 3 each write lines 0 and 8, which share "+
			"an L1 set, and read line 3",
		sgSeq(sgSt(0, 0, 1), sgSt(0, 8, 1), sgLd(0, 3, 1), sgSt(1, 0, 2), sgSt(1, 8, 2), sgLd(1, 3, 2),
			sgSt(2, 0, 3), sgSt(2, 8, 3), sgLd(2, 3, 3)),
		"core 1: reads line 0 as VID 3, a copy of core 2's version; "+
			"the checkpoint falls after the first commit",
		sgSeq(sgLd(1, 0, 3), sgCommitOp()),
		"after it, the versions commit in order and every core reads the lines",
		sgSeq(sgCommitOp(), sgCommitOp(), sgLd(0, 0, 0), sgLd(1, 8, 0), sgLd(2, 3, 0), sgSt(2, 16, 0)),
	),
	growthSeedOf("an evicted line's set keeps its length",
		"machine: two cores", spCores(2),
		"core 0: loads lines 1, 9 and 17 into one L1 set, which evicts "+
			"line 1, then evicts line 9 by hand; both L1 ways stay used",
		sgSeq(sgLd(0, 1, 0), sgLd(0, 9, 0), sgLd(0, 17, 0), sgEv(0, 9)),
		"core 1: stores to line 17 and to line 2",
		sgSeq(sgSt(1, 17, 0), sgSt(1, 2, 0)),
		"after the checkpoint, both cores read the lines back",
		sgSeq(sgLd(0, 9, 0), sgLd(1, 1, 0), sgLd(0, 17, 0), sgLd(1, 9, 0), sgLd(0, 2, 0), sgLd(1, 25, 0)),
	),
	growthSeedOf("wrong-path loads, an abort and an epoch",
		"machine: two cores", spCores(2),
		"core 1: wrong-path loads of lines 5 and 13 under VIDs 1 and 2; "+
			"core 0 writes them under VID 1",
		sgSeq(sgWP(1, 5, 1), sgWP(1, 13, 2), sgSt(0, 5, 1), sgSt(0, 13, 1)),
		"core 0: commits VID 1, and core 1 writes line 5 again under VID 1 "+
			"after the commit, left pending at the checkpoint",
		sgSeq(sgCommitOp(), sgSt(1, 5, 1), sgLd(0, 21, 1)),
		"after it: an abort, then commits through the 3-bit epoch and a VID reset",
		sgSeq(sgAbortOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(), sgCommitOp(),
			sgCommitOp(), sgCommitOp(), sgLd(1, 13, 1), sgSt(0, 29, 2)),
	),
}

// FuzzSparseExact holds the sparse form of the exact encoding to the dense
// one (checkSparse): each input picks two or three cores and a sequence of
// set-growth operations, and a checkpoint taken halfway through must be the
// dense bytes, restore from either form to the same machine, and resume as
// the live machine runs on.
func FuzzSparseExact(f *testing.F) {
	for _, s := range sparseSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSparse(t, data) })
}

// TestSparseExactSeeds runs every seed through checkSparse and requires
// each checkpoint to leave some set as a gap and hold only some ways of
// another, so the check is not vacuous.
func TestSparseExactSeeds(t *testing.T) {
	for _, s := range sparseSeeds {
		t.Run(s.name, func(t *testing.T) {
			if shape := checkSparse(t, s.data); shape.nilSets == 0 || shape.partSets == 0 {
				t.Errorf("the checkpoint has %d nil and %d partly used sets, want some of each", shape.nilSets, shape.partSets)
			}
		})
	}
}

// TestSparseExactLayout: a sparse capture holds the header, the maps and
// the sets a run used, and nothing of the ways it did not use. Every gap is
// at least one Line long, and every set never scanned lies in a gap.
func TestSparseExactLayout(t *testing.T) {
	h := New(sparseConfig(2))
	var lc vid.V
	driveRandom(h, rand.New(rand.NewSource(5)), 200, &lc)
	sp := h.SparseExact()
	held := 0
	for i, st := range sp.Stretches {
		held += len(st.Data)
		if i > 0 {
			prev := sp.Stretches[i-1]
			if gap := st.Off - prev.Off - len(prev.Data); gap < lineExactLen {
				t.Errorf("stretch %d follows a gap of %d bytes", i, gap)
			}
		}
	}
	used := h.exactLen()
	for _, c := range h.all {
		for si, s := range c.sets {
			used -= (c.ways - len(s)) * lineExactLen
			if len(s) == 0 && c.setGen[si] == 0 && c.setTag[si] == 0 {
				used -= 16
			}
		}
	}
	if held != used {
		t.Errorf("the stretches hold %d bytes, the used sets and the rest of the encoding %d", held, used)
	}
	if sp.Len != h.exactLen() {
		t.Errorf("sparse length %d, exact length %d", sp.Len, h.exactLen())
	}
}

// TestSparseRestoreCorruption: a corrupt sparse form restores to an error,
// never a panic, and never allocates past the configured geometry; a
// flipped byte may also restore, into a machine that random stimuli drive
// without a panic, as in TestExactRestoreByteCorruption.
func TestSparseRestoreCorruption(t *testing.T) {
	cfg := exactTestCfg(2) // no MOESI-San: driveRandom's VIDs may pass a flipped epoch's end
	cfg.L1Size, cfg.L2Size = 8*2*LineSize, 64*4*LineSize
	h := New(cfg)
	var lc vid.V
	driveRandom(h, rand.New(rand.NewSource(3)), 150, &lc)
	good := h.SparseExact()
	if len(good.Stretches) < 3 {
		t.Fatalf("want a form of several stretches, have %d", len(good.Stretches))
	}
	// clone copies good so a corruption cannot reach it.
	clone := func() Sparse {
		c := Sparse{Len: good.Len, Stretches: make([]Stretch, len(good.Stretches))}
		for i, st := range good.Stretches {
			c.Stretches[i] = Stretch{Off: st.Off, Data: bytes.Clone(st.Data)}
		}
		return c
	}
	last := len(good.Stretches) - 1
	gapAt := good.Stretches[last-1].Off + len(good.Stretches[last-1].Data) // a gap of ways follows
	mustFail := []struct {
		name string
		bend func(s *Sparse)
		want string
	}{
		{"gap filled with 0xff", func(s *Sparse) {
			fill := bytes.Repeat([]byte{0xff}, lineExactLen)
			s.Stretches = append(s.Stretches[:last], Stretch{Off: gapAt, Data: fill}, s.Stretches[last])
		}, "corrupt"},
		{"overlapping stretches", func(s *Sparse) {
			s.Stretches[1].Off = s.Stretches[0].Off + len(s.Stretches[0].Data) - 1
		}, "overlaps"},
		{"stretches out of order", func(s *Sparse) {
			s.Stretches[1], s.Stretches[2] = s.Stretches[2], s.Stretches[1]
		}, "overlaps"},
		{"stretch past the length", func(s *Sparse) {
			s.Stretches[last].Data = append(s.Stretches[last].Data, make([]byte, s.Len)...)
		}, "passes the length"},
		{"negative offset", func(s *Sparse) { s.Stretches[0].Off = -1 }, "overlaps"},
		{"length one short", func(s *Sparse) { s.Len-- }, ""},
		{"length one long", func(s *Sparse) { s.Len++ }, "too long"},
		{"length 2^40", func(s *Sparse) { s.Len = 1 << 40 }, "too long"},
		{"length 0", func(s *Sparse) { s.Len = 0 }, ""},
		{"negative length", func(s *Sparse) { s.Len = -5 }, "negative"},
		{"a memory count of 2^40", func(s *Sparse) {
			// The memory count sits before the first cache's counters.
			nmem := len(exactMagic) + 8*len(cfg.geometry()) + 18 + 8 + 8*reflect.TypeFor[Stats]().NumField() + 8 +
				len(h.pres)*(8+8*presWords)
			putU64(s, nmem, 1<<40)
		}, "truncated"},
		{"committed VID beyond the VID space", func(s *Sparse) {
			s.Stretches[0].Data[len(exactMagic)+8*len(cfg.geometry())] = 0xff
		}, "VID space"},
		{"bytes cut from a stretch", func(s *Sparse) {
			d := s.Stretches[0].Data
			s.Stretches[0].Data = append(d[:40:40], d[48:]...)
		}, ""},
		{"bytes added to a stretch", func(s *Sparse) {
			d := s.Stretches[0].Data
			s.Stretches[0].Data = append(append(d[:40:40], 1, 2, 3, 4, 5, 6, 7, 8), d[40:]...)
		}, ""},
	}
	for _, tc := range mustFail {
		s := clone()
		tc.bend(&s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := restoreNoPanic(t, tc.name, cfg, s)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: restored", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > 1<<20 {
			t.Errorf("%s: restore allocated %d bytes", tc.name, got)
		}
	}

	// Flipped bytes, one at a time and eight at a time, in every stretch.
	rng := rand.New(rand.NewSource(4))
	for si, st := range good.Stretches {
		for i := range st.Data {
			for _, width := range []int{1, 8} {
				s := clone()
				for k := i; k < min(i+width, len(st.Data)); k++ {
					s.Stretches[si].Data[k] ^= byte(1 + rng.Intn(255))
				}
				if restoreNoPanic(t, "flip", cfg, s) != nil {
					continue
				}
				back := New(cfg)
				if err := back.RestoreSparse(s); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("stretch %d byte %d flipped: restored, then panicked: %v", si, i, r)
						}
					}()
					lc2 := back.lc
					driveRandom(back, rand.New(rand.NewSource(int64(i))), 200, &lc2)
				}()
			}
		}
	}
}

// restoreNoPanic checks s against cfg, as a checkpoint restore does, and
// restores it into a new machine, failing t on a panic.
func restoreNoPanic(t *testing.T, name string, cfg Config, s Sparse) (err error) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panicked: %v", name, r)
		}
	}()
	if err := CheckExact(cfg, s); err != nil {
		if err2 := New(cfg).RestoreSparse(s); err2 == nil {
			t.Errorf("%s: CheckExact refused (%v) what RestoreSparse restores", name, err)
		}
		return err
	}
	return New(cfg).RestoreSparse(s)
}

// putU64 writes v big-endian at offset off of s, which a stretch must hold.
func putU64(s *Sparse, off int, v uint64) {
	for i := range s.Stretches {
		st := &s.Stretches[i]
		if st.Off <= off && off+8 <= st.Off+len(st.Data) {
			for k := 0; k < 8; k++ {
				st.Data[off-st.Off+k] = byte(v >> (56 - 8*k))
			}
			return
		}
	}
	panic("putU64: offset not in a stretch")
}
