package ckpt

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"hmtx/internal/check"
	"hmtx/internal/engine"
	"hmtx/internal/experiments"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/paradigm"
)

// refDoc mirrors Doc with the memory blobs as the plain hex strings the
// format stores, so encoding/json decodes a whole document the way Read
// did before it learnt to keep the blob out of the JSON scanner. The
// shallower string fields hide the embedded Blob fields of the same name.
type refDoc struct {
	Schema      string            `json:"schema"`
	Kind        string            `json:"kind"`
	Run         *refRun           `json:"run,omitempty"`
	Experiments *ExperimentsState `json:"experiments,omitempty"`
	Check       *refCheck         `json:"check,omitempty"`
}

type refRun struct {
	RunState
	Mem string `json:"mem"`
}

type refCheck struct {
	CheckState
	FinalState string `json:"final_state,omitempty"`
}

// refRead is the reference reader: json.Unmarshal of the whole document,
// then hex decoding of the blobs into their one-stretch form, then Read's
// validation.
func refRead(data []byte) (*Doc, error) {
	var r refDoc
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	doc := &Doc{Schema: r.Schema, Kind: r.Kind, Experiments: r.Experiments}
	if r.Run != nil {
		mem, err := hex.DecodeString(r.Run.Mem)
		if err != nil {
			return nil, err
		}
		rs := r.Run.RunState
		rs.Mem = Blob{memsys.SparseOf(mem)}
		doc.Run = &rs
	}
	if r.Check != nil {
		final, err := hex.DecodeString(r.Check.FinalState)
		if err != nil {
			return nil, err
		}
		cs := r.Check.CheckState
		if len(final) > 0 {
			cs.FinalState = &Blob{memsys.SparseOf(final)}
		}
		doc.Check = &cs
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// denseView returns doc with each blob in the one-stretch form of its dense
// bytes, so documents compare by their blobs' bytes, not by where the
// blobs' gaps fall.
func denseView(doc *Doc) *Doc {
	d := *doc
	if d.Run != nil {
		rs := *d.Run
		rs.Mem = Blob{memsys.SparseOf(rs.Mem.AppendDense(nil))}
		d.Run = &rs
	}
	if d.Check != nil && d.Check.FinalState != nil {
		cs := *d.Check
		cs.FinalState = &Blob{memsys.SparseOf(cs.FinalState.AppendDense(nil))}
		d.Check = &cs
	}
	return &d
}

// tinyRunDoc is a run checkpoint of a machine with one-set caches, with
// every instrument attached: a blob of a few KB instead of 54 MB.
func tinyRunDoc(t testing.TB) *Doc {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = 2
	cfg.Mem.L1Size, cfg.Mem.L1Ways = 2*memsys.LineSize, 2
	cfg.Mem.L2Size, cfg.Mem.L2Ways = 4*memsys.LineSize, 4
	sys := newInstrumentedCfg(cfg)
	loop := &gridLoop{n: 6}
	loop.Setup(sys.Mem)
	var doc *Doc
	hmtx.RunOpts(sys, loop, paradigm.DOALL, 2, hmtx.Options{
		Every: 3,
		Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
			doc = CaptureRun(sys, RunState{Bench: "b", System: "hmtx", Cores: 2, Every: 3,
				EngineCfg: cfg, NextIt: nextIt, Partial: sofar})
			return true
		},
	})
	if doc == nil {
		t.Fatal("no checkpoint captured")
	}
	return doc
}

// tinyCheckDoc is the counterexample checkpoint hmtxcheck -emit-ckpt
// writes for the smallest injected-bug search.
func tinyCheckDoc(t testing.TB) *Doc {
	cfg := check.Config{Cores: 2, Addrs: 1, VIDs: 1, StoreVals: 2, InjectBug: memsys.BugStaleCopyOnConvert}
	sum, err := check.Run(cfg)
	if err != nil || sum.Violation == nil {
		t.Fatalf("injected bug not found: %v", err)
	}
	h, _, _ := cfg.ReplayTo(sum.Violation.Steps, len(sum.Violation.Steps))
	return &Doc{Schema: Schema, Kind: KindCheck, Check: &CheckState{
		Config: cfg, Counterexample: sum.Violation, FinalState: &Blob{h.SparseExact()}}}
}

func tinyExperimentsDoc() *Doc {
	return &Doc{Schema: Schema, Kind: KindExperiments, Experiments: &ExperimentsState{
		Config: experiments.Config{Scale: 1, Cores: 4, Parallelism: 1},
		State:  experiments.CkptState{Done: []string{"052.alvinn/seq"}, Results: []experiments.BenchResult{{}}},
	}}
}

func encode(t testing.TB, doc *Doc) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readSeed is one named starting document for FuzzRead.
type readSeed struct {
	name string
	data []byte
}

// readSeeds are the documents FuzzRead starts from: each kind canonical and
// compact, and run documents bent at the memory slot — truncated inside the
// hex, emptied, a quote, backslash or uppercase digit inside it, its key
// duplicated, case-folded or moved into a nested object.
func readSeeds(t testing.TB) []readSeed {
	run := encode(t, tinyRunDoc(t))
	slot := bytes.Index(run, memSlot) + len(memSlot)
	end := slot + bytes.IndexByte(run[slot:], '"')
	splice := func(at int, s string) []byte {
		return append(append(append([]byte(nil), run[:at]...), s...), run[at:]...)
	}
	rewrite := func(from, to int, s string) []byte {
		return append(append(append([]byte(nil), run[:from]...), s...), run[to:]...)
	}
	replace := func(old, new string) []byte {
		return bytes.Replace(run, []byte(old), []byte(new), 1)
	}
	seeds := []readSeed{
		{"run", run},
		{"check", encode(t, tinyCheckDoc(t))},
		{"experiments", encode(t, tinyExperimentsDoc())},
		{"truncated in hex", run[:slot+7]},
		{"truncated before closing quote", run[:end-1]},
		{"quote in hex", splice(slot+6, `"`)},
		{"backslash in hex", splice(slot+6, `\`)},
		{"odd hex", splice(end, `0`)},
		{"case-folded key", replace(`"mem": "`, `"MEM": "`)},
		{"earlier duplicate key", replace(`"bench": "b"`, `"mem": "00", "bench": "b"`)},
		{"nested key", replace(`"bench": "b"`, `"bench": "b", "engine": {"mem": "00"}`)},
		{"later duplicate key", splice(end+1, `, "mem": "0a"`)},
		{"later duplicate of the probe", splice(end+1, `, "mem": "00"`)},
		{"later empty duplicate", splice(end+1, `, "mem": ""`)},
		{"slot in a nested object", bytes.Replace(splice(end+1, `}`), []byte(`"mem": "`), []byte("\"x\": {\n    \"mem\": \""), 1)},
		{"later case-folded key", splice(end+1, `, "Mem": "0a"`)},
		{"later null", splice(end+1, `, "mem": null`)},
		{"earlier null run", replace(`"run": {`, `"run": null, "run": {`)},
		{"earlier run section", replace(`"schema"`, `"run": {"mem": "0a"}, "schema"`)},
		{"later null run", append(append([]byte(nil), run[:len(run)-2]...), `, "run": null}`...)},
		{"trailing data", append(append([]byte(nil), run...), `{}`...)},
		{"uppercase hex", rewrite(slot, end, strings.ToUpper(string(run[slot:end])))},
		{"uppercase last digit", rewrite(end-1, end, "A")},
		{"empty hex", rewrite(slot, end, "")},
	}
	for _, s := range seeds[:3] {
		var c bytes.Buffer
		if err := json.Compact(&c, s.data); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, readSeed{s.name + " compact", c.Bytes()})
	}
	return seeds
}

// FuzzRead checks Read against refRead: on every input both return the
// same Doc, blobs compared by their dense bytes, or both return an error,
// and RestoreRun on any accepted run document returns an error or a
// system, never a panic. Read also agrees with itself, gaps and all, on
// the smallest read buffer, fed one byte per read, so every byte of the
// input falls on a read boundary.
func FuzzRead(f *testing.F) {
	for _, s := range readSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		want, werr := refRead(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read error %v, reference error %v", err, werr)
		}
		small, serr := read(iotest.OneByteReader(bytes.NewReader(data)), 16)
		if (serr == nil) != (err == nil) || !reflect.DeepEqual(small, got) {
			t.Fatalf("Read with a 16-byte buffer disagrees (error %v, want %v):\n got %+v\nwant %+v", serr, err, small, got)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(denseView(got), want) {
			t.Fatalf("Read and the reference disagree:\n got %+v\nwant %+v", got, want)
		}
		if got.Kind == KindRun {
			RestoreRun(got)
		}
	})
}

// TestReadSplitPath: a canonical run checkpoint takes the split path, and
// a later duplicate "mem" key wins over the slot, as in encoding/json.
// (Plain go test also runs every FuzzRead seed against refRead.)
func TestReadSplitPath(t *testing.T) {
	for _, s := range readSeeds(t) {
		switch s.name {
		case "run":
			for _, bufSize := range []int{16, ioBuf} {
				r := iotest.HalfReader(bytes.NewReader(s.data))
				if _, _, split, err := readSplit(r, bufSize, new(wireDoc)); err != nil || !split {
					t.Errorf("%d-byte buffer: a canonical run checkpoint did not take the split path (%v)", bufSize, err)
				}
			}
		case "later duplicate key":
			if doc, err := Read(bytes.NewReader(s.data)); err != nil || !bytes.Equal(doc.Run.Mem.AppendDense(nil), []byte{0x0a}) {
				t.Errorf("%s: Run.Mem is not the later value (%v)", s.name, err)
			}
		}
	}
}

// TestReadIOError: a read error before, inside or after the memory slot's
// hex is returned, not taken for the end of the input.
func TestReadIOError(t *testing.T) {
	run := encode(t, tinyRunDoc(t))
	slot := bytes.Index(run, memSlot) + len(memSlot)
	end := slot + bytes.IndexByte(run[slot:], '"')
	fail := errors.New("device gone")
	for _, cut := range []int{slot - 5, slot + 10, end + 5} {
		r := io.MultiReader(bytes.NewReader(run[:cut]), iotest.ErrReader(fail))
		if _, err := read(r, 16); err == nil || !strings.Contains(err.Error(), fail.Error()) {
			t.Errorf("read error at byte %d: got %v", cut, err)
		}
	}
}
