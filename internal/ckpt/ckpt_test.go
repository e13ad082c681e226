package ckpt

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/paradigm"
	"hmtx/internal/prof"
)

// listLoop is the Figure 3 linked-list loop of the hmtx driver tests: stage 1
// walks a list through a loop-carried pointer, stage 2 accumulates node
// values. All mutable loop state lives in simulated memory, which is what
// makes a restored memory image a restored loop.
type listLoop struct {
	n        int
	workCost int64
	conflict bool // stage 2 writes a cell stage 1 reads: forces misspeculation
}

const (
	llListBase = memsys.Addr(0x100000)
	llHead     = memsys.Addr(0x700)
	llProduced = memsys.Addr(0x800)
	llSum      = memsys.Addr(0x900)
	llShared   = memsys.Addr(0xA00)
)

func (l *listLoop) Name() string { return "listloop" }
func (l *listLoop) Iters() int   { return l.n }

func (l *listLoop) Setup(h *memsys.Hierarchy) {
	for i := 0; i < l.n; i++ {
		node := llListBase + memsys.Addr(i)*memsys.LineSize
		h.PokeWord(node, uint64(i+1))
		next := node + memsys.LineSize
		if i == l.n-1 {
			next = 0
		}
		h.PokeWord(node+8, next)
	}
	h.PokeWord(llHead, uint64(llListBase))
}

func (l *listLoop) Stage1(e *engine.Env, it int) bool {
	node := e.Load(llHead)
	e.Store(llProduced, node)
	if l.conflict {
		e.Load(llShared)
	}
	next := e.Load(memsys.Addr(node) + 8)
	e.Store(llHead, next)
	e.Branch(1, next != 0)
	return next != 0
}

func (l *listLoop) Stage2(e *engine.Env, it int) bool {
	node := e.Load(llProduced)
	val := e.Load(memsys.Addr(node))
	e.Compute(l.workCost)
	sum := e.Load(llSum)
	e.Store(llSum, sum+val)
	if l.conflict && it%7 == 3 {
		e.Store(llShared, uint64(it))
	}
	e.Branch(2, false)
	return false
}

// gridLoop has independent iterations (DOALL-shaped): iteration i writes a
// function of i into its own line and re-reads it.
type gridLoop struct{ n int }

const glBase = memsys.Addr(0x200000)

func (g *gridLoop) Name() string              { return "gridloop" }
func (g *gridLoop) Iters() int                { return g.n }
func (g *gridLoop) Setup(h *memsys.Hierarchy) { h.PokeWord(glBase, 7) }
func (g *gridLoop) Stage2(e *engine.Env, it int) bool {
	cell := glBase + memsys.Addr(it+1)*memsys.LineSize
	v := e.Load(cell)
	e.Store(cell, v+uint64(it)*3+1)
	e.Branch(3, false)
	return false
}
func (g *gridLoop) Stage1(e *engine.Env, it int) bool {
	e.Compute(50)
	return true
}

// sysState collects everything the byte-identity contract covers: the final
// driver outcome, engine and memory counters, the exact memory encoding, and
// the serialised snapshot of every instrument.
type sysState struct {
	out    hmtx.Outcome
	eng    engine.Stats
	mem    []byte
	fp     uint64
	prof   []byte
	series []byte
	confl  []byte
	hists  []byte
}

func capture(t *testing.T, sys *engine.System, out hmtx.Outcome) sysState {
	t.Helper()
	st := sysState{out: out, eng: *sys.Stats(), mem: sys.Mem.AppendExact(nil)}
	st.fp = sys.Mem.Fingerprint(sys.Mem.Addrs())
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sys.FlushSeries()
	p := sys.Prof().Snapshot("bench", "hmtx", "k", 0)
	st.prof = mustJSON(p)
	st.series = mustJSON(sys.Series().Snapshot("l"))
	st.confl = mustJSON(sys.Conflicts().Snapshot("l"))
	st.hists = mustJSON(sys.LatHists().Snapshot("l"))
	return st
}

func newInstrumented(cores int) *engine.System {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = cores
	return newInstrumentedCfg(cfg)
}

func newInstrumentedCfg(cfg engine.Config) *engine.System {
	sys := engine.New(cfg)
	sys.SetProf(prof.New())
	sys.SetSeries(metrics.NewSampler(512))
	sys.SetConflicts(metrics.NewRecorder(0))
	sys.SetLatHists(metrics.NewLatHists())
	return sys
}

// TestCheckpointResumeByteIdentical is the resume property across paradigms
// and loop shapes: a run halted at a mid-run checkpoint, serialised through
// JSON, restored and continued is byte-identical — outcome, engine counters,
// exact memory state, canonical fingerprint, and all four instrument
// documents — to the same segmented run left uninterrupted.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		loop func() paradigm.Loop
		kind paradigm.Kind
	}{
		{"dswp", func() paradigm.Loop { return &listLoop{n: 40, workCost: 300} }, paradigm.DSWP},
		{"psdswp", func() paradigm.Loop { return &listLoop{n: 40, workCost: 800} }, paradigm.PSDSWP},
		{"doacross", func() paradigm.Loop { return &listLoop{n: 36, workCost: 400} }, paradigm.DOACROSS},
		{"dswp-conflict", func() paradigm.Loop { return &listLoop{n: 40, workCost: 300, conflict: true} }, paradigm.DSWP},
		{"doall", func() paradigm.Loop { return &gridLoop{n: 48} }, paradigm.DOALL},
	}
	const every = 9
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: segmented but uninterrupted.
			ref := newInstrumented(4)
			refLoop := tc.loop()
			refLoop.Setup(ref.Mem)
			refOut := hmtx.RunOpts(ref, refLoop, tc.kind, 4, hmtx.Options{Every: every})
			want := capture(t, ref, refOut)

			// Interrupted: halt at the second segment boundary, checkpoint,
			// serialise, restore, resume.
			sysA := newInstrumented(4)
			loopA := tc.loop()
			loopA.Setup(sysA.Mem)
			var doc *Doc
			boundaries := 0
			outA := hmtx.RunOpts(sysA, loopA, tc.kind, 4, hmtx.Options{
				Every: every,
				Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
					boundaries++
					if boundaries == 2 {
						doc = CaptureRun(sysA, RunState{
							Bench: "bench", System: "hmtx", Paradigm: tc.kind.String(),
							Cores: 4, Scale: 1, Every: every,
							EngineCfg: func() engine.Config {
								c := engine.DefaultConfig()
								c.Mem.Cores = 4
								return c
							}(),
							NextIt: nextIt, Partial: sofar,
						})
						return true
					}
					return false
				},
			})
			if doc == nil {
				t.Fatalf("run finished in %d iterations without reaching 2 segment boundaries", outA.Iterations)
			}

			// Save→Restore→Fingerprint: the restored hierarchy fingerprints
			// identically before any further execution.
			var buf bytes.Buffer
			if err := Write(&buf, doc); err != nil {
				t.Fatal(err)
			}
			doc2, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sysB, err := RestoreRun(doc2)
			if err != nil {
				t.Fatal(err)
			}
			addrs := sysA.Mem.Addrs()
			if got, want := sysB.Mem.Fingerprint(addrs), sysA.Mem.Fingerprint(addrs); got != want {
				t.Fatalf("restored fingerprint %#x != saved %#x", got, want)
			}

			loopB := tc.loop() // no Setup: memory state was restored
			outB := hmtx.RunOpts(sysB, loopB, tc.kind, 4, hmtx.Options{
				Every: doc2.Run.Every, Partial: doc2.Run.Partial,
			})
			got := capture(t, sysB, outB)

			if got.out != want.out {
				t.Errorf("outcome after resume %+v, want %+v", got.out, want.out)
			}
			if got.eng != want.eng {
				t.Errorf("engine stats diverged after resume:\n got %+v\nwant %+v", got.eng, want.eng)
			}
			if !bytes.Equal(got.mem, want.mem) {
				t.Error("exact memory state diverged after resume")
			}
			if got.fp != want.fp {
				t.Errorf("fingerprint after resume %#x, want %#x", got.fp, want.fp)
			}
			for _, d := range []struct {
				name      string
				got, want []byte
			}{
				{"prof", got.prof, want.prof},
				{"series", got.series, want.series},
				{"conflicts", got.confl, want.confl},
				{"hists", got.hists, want.hists},
			} {
				if !bytes.Equal(d.got, d.want) {
					t.Errorf("%s document diverged after resume:\n got %s\nwant %s", d.name, d.got, d.want)
				}
			}
		})
	}
}

// TestRestoreRejectsInstrumentMismatch: a checkpoint taken with instruments
// restores with the same instruments; the engine/memsys state restore also
// rejects geometry drift.
func TestRestoreRejectsGeometryDrift(t *testing.T) {
	sys := newInstrumented(4)
	loop := &gridLoop{n: 24}
	loop.Setup(sys.Mem)
	var doc *Doc
	hmtx.RunOpts(sys, loop, paradigm.DOALL, 4, hmtx.Options{
		Every: 8,
		Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
			doc = CaptureRun(sys, RunState{
				Bench: "b", System: "hmtx", Cores: 4, Every: 8,
				EngineCfg: func() engine.Config {
					c := engine.DefaultConfig()
					c.Mem.Cores = 4
					return c
				}(),
				NextIt: nextIt, Partial: sofar,
			})
			return true
		},
	})
	if doc == nil {
		t.Fatal("no checkpoint captured")
	}
	drifted := *doc.Run
	drifted.EngineCfg.Mem.Cores = 6
	if _, err := RestoreRun(&Doc{Schema: Schema, Kind: KindRun, Run: &drifted}); err == nil {
		t.Error("restore into a 6-core machine: want geometry error")
	} else if !strings.Contains(err.Error(), "cores") && !strings.Contains(err.Error(), "geometry") {
		t.Errorf("geometry error does not name the mismatch: %v", err)
	}
}

// TestRestoreRejectsCorruptConfig: a run checkpoint whose machine
// configuration or per-core state is out of range restores to an error,
// never a panic.
func TestRestoreRejectsCorruptConfig(t *testing.T) {
	sys := newInstrumented(2)
	loop := &gridLoop{n: 16}
	loop.Setup(sys.Mem)
	var good bytes.Buffer
	hmtx.RunOpts(sys, loop, paradigm.DOALL, 2, hmtx.Options{
		Every: 4,
		Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
			cfg := engine.DefaultConfig()
			cfg.Mem.Cores = 2
			doc := CaptureRun(sys, RunState{Bench: "b", NextIt: nextIt, Partial: sofar, EngineCfg: cfg})
			if err := Write(&good, doc); err != nil {
				t.Fatal(err)
			}
			return true
		},
	})
	if good.Len() == 0 {
		t.Fatal("no checkpoint captured")
	}
	base, err := Read(&good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(rs *RunState)
	}{
		{"cores 0", func(rs *RunState) { rs.EngineCfg.Mem.Cores = 0 }},
		{"cores 256", func(rs *RunState) { rs.EngineCfg.Mem.Cores = 256 }},
		{"L1 ways 0", func(rs *RunState) { rs.EngineCfg.Mem.L1Ways = 0 }},
		{"L1 size not a multiple of ways*line", func(rs *RunState) { rs.EngineCfg.Mem.L1Size = 1000 }},
		{"L2 size 0", func(rs *RunState) { rs.EngineCfg.Mem.L2Size = 0 }},
		{"VID bits 0", func(rs *RunState) { rs.EngineCfg.Mem.VIDSpace.Bits = 0 }},
		{"VID bits 9", func(rs *RunState) { rs.EngineCfg.Mem.VIDSpace.Bits = 9 }},
		{"negative RecentN", func(rs *RunState) { rs.Engine.Cores[1].RecentN = -3 }},
		{"RecentN without a recent list", func(rs *RunState) { rs.Engine.Cores[1].RecentN, rs.Engine.Cores[1].Recent = 5, nil }},
		{"recent list shorter than RecentN", func(rs *RunState) { rs.Engine.Cores[1].RecentN, rs.Engine.Cores[1].Recent = 40, []uint64{64, 128} }},
		{"predictor counter 4", func(rs *RunState) { rs.Engine.Cores[0].Pred = map[uint64]uint8{1: 2, 7: 4} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := *base.Run
			rs.Engine.Cores = slices.Clone(rs.Engine.Cores)
			tc.corrupt(&rs)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("RestoreRun panicked: %v", p)
				}
			}()
			if _, err := RestoreRun(&Doc{Schema: Schema, Kind: KindRun, Run: &rs}); err == nil {
				t.Fatal("RestoreRun accepted the corrupt checkpoint")
			}
		})
	}
}

func TestReadValidation(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"bad schema", `{"schema":"hmtx-ckpt/v2","kind":"run","run":{}}`},
		{"bad kind", `{"schema":"hmtx-ckpt/v1","kind":"banana"}`},
		{"missing section", `{"schema":"hmtx-ckpt/v1","kind":"run"}`},
		{"not json", `schema: hmtx-ckpt/v1`},
	} {
		if _, err := Read(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	good := `{"schema":"hmtx-ckpt/v1","kind":"check","check":{"config":{}}}`
	doc, err := Read(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid check doc rejected: %v", err)
	}
	if doc.Kind != KindCheck || doc.Check == nil {
		t.Fatalf("check doc parsed wrong: %+v", doc)
	}
}

// TestDocDeterministic: the same state serialises to the same bytes.
func TestDocDeterministic(t *testing.T) {
	sys := newInstrumented(2)
	loop := &gridLoop{n: 16}
	loop.Setup(sys.Mem)
	var docs [][]byte
	hmtx.RunOpts(sys, loop, paradigm.DOALL, 2, hmtx.Options{
		Every: 4,
		Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
			d := CaptureRun(sys, RunState{Bench: "b", NextIt: nextIt, Partial: sofar,
				EngineCfg: func() engine.Config {
					c := engine.DefaultConfig()
					c.Mem.Cores = 2
					return c
				}()})
			var b1, b2 bytes.Buffer
			if err := Write(&b1, d); err != nil {
				t.Fatal(err)
			}
			if err := Write(&b2, d); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, b1.Bytes())
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Error("same doc serialised to different bytes")
			}
			return true
		},
	})
	if len(docs) == 0 {
		t.Fatal("no checkpoint captured")
	}
	if !json.Valid(docs[0]) {
		t.Error("checkpoint is not valid JSON")
	}
	var v map[string]any
	if err := json.Unmarshal(docs[0], &v); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v["schema"], "hmtx-ckpt/v1") {
		t.Errorf("schema field = %v", v["schema"])
	}
}

// TestHexZeroBlocks: writeHex and decodeHex, with their zero-block fast
// paths, agree with encoding/hex on every length and on zero, non-zero and
// mixed blocks; decodeHex stops at the first pair that holds a digit other
// than a lowercase hex digit, as the streaming reader needs; and a hexStream
// fed the digits in pieces of any size builds the same sparse blob, with no
// stretch at all for a blob of zeros.
func TestHexZeroBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 3*hexBlock+1; n++ {
		for trial := 0; trial < 8; trial++ {
			src := make([]byte, n)
			for i := range src {
				if trial > 0 && rng.Intn(50) == 0 {
					src[i] = byte(1 + rng.Intn(255))
				}
			}
			var in memsys.SparseWriter
			for p := src; len(p) > 0; {
				k := min(len(p), 1+rng.Intn(80))
				put(&in, p[:k])
				p = p[k:]
			}
			want := hex.EncodeToString(src)
			for _, s := range []memsys.Sparse{in.Sparse(), memsys.SparseOf(src)} {
				var enc bytes.Buffer
				if err := writeHex(&enc, s); err != nil || enc.String() != want {
					t.Fatalf("writeHex(%x) = %s, %v", src, enc.Bytes(), err)
				}
			}
			enc := []byte(want)

			whole := hexStream{half: -1}
			if k := whole.write(enc); k != len(enc) {
				t.Fatalf("hexStream took %d of %d digits of %s", k, len(enc), enc)
			}
			got := whole.blob.Sparse()
			if !bytes.Equal(got.AppendDense(nil), src) || got.Len != n {
				t.Fatalf("decoding %s gave %x", enc, got.AppendDense(nil))
			}
			if trial == 0 && len(got.Stretches) != 0 {
				t.Fatalf("%d zero bytes decoded into %d stretches", n, len(got.Stretches))
			}
			pieces := hexStream{half: -1}
			for p := enc; len(p) > 0; {
				k := min(len(p), 1+rng.Intn(40))
				if pieces.write(p[:k]) != k {
					t.Fatalf("hexStream refused a piece of %s", enc)
				}
				p = p[k:]
			}
			if split := pieces.blob.Sparse(); !reflect.DeepEqual(split, got) {
				t.Fatalf("decoding %s in pieces gave %+v, whole %+v", enc, split, got)
			}

			if n > 0 {
				if k := decodeHex(new(memsys.SparseWriter), enc[:len(enc)-1]); k != len(enc)-2 {
					t.Fatalf("decodeHex decoded %d digits of odd-length %s", k, enc[:len(enc)-1])
				}
				for _, c := range []byte{'g', 'A', '"', '\\'} {
					bad := slices.Clone(enc)
					at := rng.Intn(len(bad))
					bad[at] = c
					var w memsys.SparseWriter
					if k := decodeHex(&w, bad); k != at&^1 || !bytes.Equal(w.Sparse().AppendDense(nil), src[:at/2]) {
						t.Fatalf("decodeHex(%s) decoded %d digits, want %d", bad, k, at&^1)
					}
				}
			}
		}
	}
}

// TestSparseRoundTripAllocs is the allocation contract of the sparse blob:
// on a Table 2, 4-core machine after a short DOALL run, CaptureRun and a
// Write/Read round trip through a bytes.Buffer allocate less than 2 MB
// besides the buffer itself. The blob's dense encoding is ~54 MB, which the
// dense path allocated twice, at capture and at read.
func TestSparseRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations count as allocations")
	}
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = 4
	sys := engine.New(cfg)
	loop := &gridLoop{n: 48}
	loop.Setup(sys.Mem)
	hmtx.RunOpts(sys, loop, paradigm.DOALL, 4, hmtx.Options{})
	rs := RunState{Bench: "b", System: "hmtx", Paradigm: "doall", Cores: 4, EngineCfg: cfg}

	var buf bytes.Buffer // the caller's buffer, grown to size before measuring
	if err := Write(&buf, CaptureRun(sys, rs)); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	werr := Write(&buf, CaptureRun(sys, rs))
	back, rerr := Read(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if werr != nil || rerr != nil {
		t.Fatal(werr, rerr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("capture and round trip allocated %d bytes, want < 2 MB", got)
	}
	if !bytes.Equal(back.Run.Mem.AppendDense(nil), sys.Mem.AppendExact(nil)) {
		t.Error("the blob read back is not the machine's exact encoding")
	}
}
