// Package ckpt implements the versioned hmtx-ckpt/v1 checkpoint format
// (DESIGN.md §18): a byte-deterministic serialization of full simulation
// state that supports exact resume — a run halted at a checkpoint and
// resumed produces byte-identical output documents to the same run left
// uninterrupted — and time-travel inspection via cmd/hmtxdbg.
//
// A checkpoint document has one of three kinds:
//
//   - "run": one hmtxsim-style execution, captured at an iteration-segment
//     boundary of the hmtx driver (engine quiescent). Holds the engine
//     configuration, the exact memory-hierarchy encoding
//     (memsys.AppendExact), the persistent engine state (engine.Ckpt,
//     including the RNG draw position), the partial driver outcome, and the
//     live state of every attached instrument (profiler, time-series
//     sampler, conflict recorder, latency histograms).
//   - "experiments": a partially completed experiment suite, captured
//     between (benchmark, mode) units. Holds the suite configuration, the
//     completed unit keys and the partial results.
//   - "check": a model-checker counterexample (hmtxcheck -emit-ckpt): the
//     checker configuration, the shortest failing stimulus trace and the
//     exact encoding of the final (violating) hierarchy state, openable by
//     hmtxdbg for step-through inspection.
//
// What is NOT checkpointed, by design: goroutine stacks (capture happens
// only at quiescent boundaries, where none are live), paradigm host state
// (the paradigm.Loop contract keeps all mutable loop state in simulated
// memory, so a restored memory image is a restored loop), and the event
// tracer (a resumed run with -trace yields the tail of the trace only, on
// a per-engine-run clock). The obs registry's counters and scalars read
// live engine/memory state and need no capture of their own; its
// histograms record at observation time and are carried with the other
// instrument state (instr.Ckpt), so -stats-json is resume-stable alongside
// bench, prof, series, conflicts and hist.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hmtx/internal/check"
	"hmtx/internal/engine"
	"hmtx/internal/experiments"
	"hmtx/internal/hmtx"
	"hmtx/internal/instr"
	"hmtx/internal/memsys"
)

// Schema is the checkpoint document's schema tag. The version is bumped on
// any incompatible layout change; readers reject unknown schemas rather
// than guessing (compat rule: a vN reader reads vN only).
const Schema = "hmtx-ckpt/v1"

// The checkpoint kinds.
const (
	KindRun         = "run"
	KindExperiments = "experiments"
	KindCheck       = "check"
)

// Doc is one hmtx-ckpt/v1 document. Exactly one kind section is non-nil,
// matching Kind.
type Doc struct {
	Schema      string            `json:"schema"`
	Kind        string            `json:"kind"`
	Run         *RunState         `json:"run,omitempty"`
	Experiments *ExperimentsState `json:"experiments,omitempty"`
	Check       *CheckState       `json:"check,omitempty"`
}

// RunState is the "run" kind: one benchmark execution captured at an
// iteration-segment boundary.
type RunState struct {
	// Bench through Every identify the run so a resume can verify it is
	// continuing the same experiment it thinks it is.
	Bench    string `json:"bench"`
	System   string `json:"system"`
	Paradigm string `json:"paradigm"`
	Cores    int    `json:"cores"`
	Scale    int    `json:"scale"`
	// Every is the iteration-segment length the run was captured under.
	// Segmentation perturbs pipeline fill/drain timing, so byte-identity
	// holds between runs with equal Every; a resume always continues with
	// the checkpoint's own Every.
	Every int `json:"every"`

	// EngineCfg rebuilds the machine; geometry is additionally validated
	// against the memory image's own header on restore.
	EngineCfg engine.Config `json:"engine_config"`

	// NextIt is the next loop iteration to execute; Partial accumulates
	// the driver outcome of the pre-checkpoint half.
	NextIt  int          `json:"next_it"`
	Partial hmtx.Outcome `json:"partial"`

	// Engine is the persistent engine state; Mem is the exact
	// memory-hierarchy encoding (memsys.AppendExact), in sparse form.
	Engine engine.Ckpt `json:"engine"`
	Mem    Blob        `json:"mem"`

	// Instrument state (prof, series, conflicts, hists, obs_hists); a
	// section is nil when its instrument was not attached, and a resume
	// must attach exactly the same instruments (Attached). The
	// statistics-registry histograms restore when the resumed run
	// re-registers (-stats or -stats-json).
	instr.Ckpt
}

// ExperimentsState is the "experiments" kind: a partially completed suite,
// captured at (benchmark, mode) unit granularity. Unit boundaries do not
// perturb simulated timing — every unit owns its engine — so a resumed
// suite's documents are byte-identical to an uninterrupted run's.
type ExperimentsState struct {
	Config experiments.Config    `json:"config"`
	State  experiments.CkptState `json:"state"`
}

// CheckState is the "check" kind: a model-checker counterexample with the
// exact final hierarchy state, the debugger's entry point for protocol
// violations.
type CheckState struct {
	Config         check.Config          `json:"config"`
	Counterexample *check.Counterexample `json:"counterexample,omitempty"`
	// FinalState is the exact encoding (memsys.AppendExact) of the
	// hierarchy after the last replayed step — for a violation, the state
	// the failing stimulus produced. A document without one reads as nil.
	FinalState *Blob `json:"final_state,omitempty"`
}

// Blob is an exact memory-hierarchy encoding (memsys.AppendExact) in its
// sparse form, memsys.Sparse: only the stretches of the encoding a run
// wrote are held, and every byte between them is zero. Its JSON form is the
// lowercase hex string of the dense bytes; Read decodes it.
type Blob struct{ memsys.Sparse }

// MarshalJSON returns the blob as a JSON string of lowercase hex.
func (b Blob) MarshalJSON() ([]byte, error) {
	out := bytes.NewBuffer(make([]byte, 0, 2*b.Len+2))
	out.WriteByte('"')
	writeHex(out, b.Sparse)
	out.WriteByte('"')
	return out.Bytes(), nil
}

// CaptureRun completes a run checkpoint: the caller fills the identity and
// driver fields of rs (Bench..Every, NextIt, Partial); CaptureRun adds the
// engine, memory and instrument state from sys. The engine must be
// quiescent (between Run calls).
func CaptureRun(sys *engine.System, rs RunState) *Doc {
	rs.Engine = sys.CaptureCkpt()
	rs.Mem = Blob{sys.Mem.SparseExact()}
	rs.Ckpt = sys.CaptureInstr()
	return &Doc{Schema: Schema, Kind: KindRun, Run: &rs}
}

// RestoreRun rebuilds a simulation from a run checkpoint: a fresh system
// under the checkpointed configuration, with the same instruments attached
// and every piece of state — memory, engine, instruments — restored. The
// returned system is ready for hmtx.RunOpts with Options{Every:
// doc.Run.Every, Partial: doc.Run.Partial}.
func RestoreRun(doc *Doc) (*engine.System, error) {
	if doc.Kind != KindRun || doc.Run == nil {
		return nil, fmt.Errorf("ckpt: not a run checkpoint (kind %q)", doc.Kind)
	}
	rs := doc.Run
	if err := rs.EngineCfg.Mem.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: engine config: %v", err)
	}
	if err := memsys.CheckExact(rs.EngineCfg.Mem, rs.Mem.Sparse); err != nil {
		return nil, err
	}
	sys := engine.New(rs.EngineCfg)
	if err := sys.RestoreInstr(rs.Ckpt); err != nil {
		return nil, err
	}
	if err := sys.Mem.RestoreSparse(rs.Mem.Sparse); err != nil {
		return nil, err
	}
	if err := sys.RestoreCkpt(rs.Engine); err != nil {
		return nil, err
	}
	return sys, nil
}

// memSlot opens the run section's memory string as Write lays it out. JSON
// strings cannot hold a raw newline, so in Write's output it is unique.
var memSlot = []byte("\n    \"mem\": \"")

// hexChunk is the most blob bytes Write hex-encodes or zero-fills per write.
const hexChunk = 32 << 10

// Write serialises the document as deterministic indented JSON: the bytes
// json.MarshalIndent gives for the whole document, plus a newline. The
// run section's memory blob, nearly all of a run checkpoint, never passes
// through encoding/json: the document is marshalled with the blob empty,
// and the blob's hex is written into its slot, each gap as copies of
// zeroHex and only the stretches hex-encoded.
func Write(w io.Writer, doc *Doc) error {
	var blob memsys.Sparse
	if doc.Run != nil && doc.Run.Mem.Len > 0 {
		rs := *doc.Run
		blob, rs.Mem = rs.Mem.Sparse, Blob{}
		d := *doc
		d.Run = &rs
		doc = &d
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	at := len(buf)
	if blob.Len > 0 {
		if at = bytes.Index(buf, memSlot); at < 0 {
			return fmt.Errorf("ckpt: no memory slot in the marshalled run section")
		}
		at += len(memSlot)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(buf) + 2*blob.Len + 1) // one allocation for a *bytes.Buffer
	}
	if _, err := w.Write(buf[:at]); err != nil {
		return err
	}
	if err := writeHex(w, blob); err != nil {
		return err
	}
	_, err = w.Write(append(buf[at:], '\n'))
	return err
}

// WriteFile writes the document to path. The blob's stretches and gaps
// reach the file through one buffer, not a write call each.
func WriteFile(path string, doc *Doc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, ioBuf)
	if err := Write(bw, doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a checkpoint document. The result is what
// json.Unmarshal of the whole input gives, and every input it rejects is
// rejected. A run checkpoint is not held whole: the memory slot's hex is
// decoded into the sparse blob as it is read (readSplit), so the blob
// holds only the stretches that are not zero.
func Read(r io.Reader) (*Doc, error) {
	return read(r, ioBuf)
}

// ReadFile reads the document at path.
func ReadFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := read(f, ioBuf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// wireDoc is Doc as Read hands it to json.Unmarshal: the memory blobs stay
// hex strings until json.Unmarshal has settled which value each key keeps,
// since a later duplicate key replaces an earlier one whatever it held. The
// string fields hide the embedded Blob fields of the same name.
type wireDoc struct {
	Schema      string            `json:"schema"`
	Kind        string            `json:"kind"`
	Run         *wireRun          `json:"run"`
	Experiments *ExperimentsState `json:"experiments"`
	Check       *wireCheck        `json:"check"`
}

type wireRun struct {
	RunState
	Mem string `json:"mem"`
}

type wireCheck struct {
	CheckState
	FinalState string `json:"final_state"`
}

// ioBuf is the read buffer size of Read and ReadFile, and the write
// buffer size of WriteFile.
const ioBuf = 64 << 10

// read is Read with a read buffer of bufSize bytes.
func read(r io.Reader, bufSize int) (*Doc, error) {
	var w wireDoc
	mem, data, split, err := readSplit(r, bufSize, &w)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %v", err)
	}
	if !split {
		w = wireDoc{}
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("ckpt: %v", err)
		}
	}
	doc := &Doc{Schema: w.Schema, Kind: w.Kind, Experiments: w.Experiments}
	if w.Run != nil {
		doc.Run = &w.Run.RunState
		if !split {
			if mem, err = hexBlob(w.Run.Mem); err != nil {
				return nil, err
			}
		}
		doc.Run.Mem = mem
	}
	if w.Check != nil {
		doc.Check = &w.Check.CheckState
		final, err := hexBlob(w.Check.FinalState)
		if err != nil {
			return nil, err
		}
		if final.Len > 0 {
			doc.Check.FinalState = &final
		}
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// hexBlob decodes a blob that json.Unmarshal took whole: its one-stretch
// form, since a document off the streamed path is small or hand-made.
func hexBlob(s string) (Blob, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return Blob{}, fmt.Errorf("ckpt: corrupt memory encoding: %v", err)
	}
	return Blob{memsys.SparseOf(b)}, nil
}

// validate checks the schema tag and that the kind's section is present.
func (doc *Doc) validate() error {
	if doc.Schema != Schema {
		return fmt.Errorf("ckpt: schema %q is not %q", doc.Schema, Schema)
	}
	switch doc.Kind {
	case KindRun:
		if doc.Run == nil {
			return fmt.Errorf("ckpt: run checkpoint without a run section")
		}
	case KindExperiments:
		if doc.Experiments == nil {
			return fmt.Errorf("ckpt: experiments checkpoint without an experiments section")
		}
	case KindCheck:
		if doc.Check == nil {
			return fmt.Errorf("ckpt: check checkpoint without a check section")
		}
	default:
		return fmt.Errorf("ckpt: unknown checkpoint kind %q", doc.Kind)
	}
	return nil
}

// readSplit reads the input and decodes the hex digits of its memory slot
// into the blob as they arrive, keeping only the rest of the document: a
// 100 MB run checkpoint is a few tens of KB of JSON around its blob. It
// decodes that rest into w with the slot emptied. It reports false, with
// the whole input in data, when the input has no slot or the result could
// differ from json.Unmarshal of the whole input: the input need not be
// Write's, and a duplicate, case-folded or nested "mem" key could supply
// Run.Mem instead of the slot. Decoding the rest once more with the slot
// set to "00" settles that: Run.Mem follows the slot in both decodes only
// if the slot is its value. Only the lowercase digits Write emits are
// decoded as they stream, so the blob re-encodes to the exact input digits
// when the input has to be decoded whole.
func readSplit(r io.Reader, bufSize int, w *wireDoc) (blob Blob, data []byte, split bool, err error) {
	br := bufio.NewReaderSize(r, bufSize)
	// The input up to the slot's first digit. The slot opens with the
	// only newline a JSON string cannot hold, so it is looked for after
	// each line.
	var head []byte
	for {
		line, err := br.ReadSlice('\n')
		head = append(head, line...)
		if err == io.EOF {
			return Blob{}, head, false, nil
		} else if err == bufio.ErrBufferFull {
			continue
		} else if err != nil {
			return Blob{}, nil, false, err
		}
		if p, _ := br.Peek(len(memSlot) - 1); bytes.Equal(p, memSlot[1:]) {
			head = append(head, p...)
			br.Discard(len(p))
			break
		}
	}
	lo := len(head)
	h := hexStream{half: -1}
	// The digits up to the closing quote, or to the first byte that is
	// not a lowercase hex digit.
	var chunk []byte
	for {
		chunk, err = br.ReadSlice('"')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return Blob{}, nil, false, err
		}
		digits := chunk
		if err == nil {
			digits = chunk[:len(chunk)-1]
		}
		chunk = chunk[h.write(digits):]
		if len(chunk) > 0 || err == io.EOF {
			break
		}
	}
	rest := bytes.NewBuffer(append(head, chunk...))
	if _, err := rest.ReadFrom(br); err != nil {
		return Blob{}, nil, false, err
	}
	data = rest.Bytes()
	if h.half < 0 && splitRest(data, lo, w) {
		return Blob{h.blob.Sparse()}, nil, true, nil
	}
	return Blob{}, h.rebuild(data, lo), false, nil
}

// splitRest decodes rest, the input with the slot's digits cut out at lo,
// into w and reports whether the slot is the value json.Unmarshal of the
// whole input gives Run.Mem. That also proves the slot's string closes at
// lo: a byte there other than its quote would be part of the value.
func splitRest(rest []byte, lo int, w *wireDoc) bool {
	if json.Unmarshal(rest, w) != nil || w.Run == nil || w.Run.Mem != "" {
		return false
	}
	var probe struct {
		Run *struct {
			Mem string `json:"mem"`
		} `json:"run"`
	}
	marked := append(append(rest[:lo:lo], "00"...), rest[lo:]...)
	return json.Unmarshal(marked, &probe) == nil && probe.Run != nil && probe.Run.Mem == "00"
}

// hexStream decodes lowercase hex digits into a sparse blob as they
// arrive: runs of zero digits become its gaps, and the other digits its
// stretches.
type hexStream struct {
	blob memsys.SparseWriter
	half int // the value of an unpaired last digit, or -1
}

// write decodes p and returns how many of its bytes it took: all of them,
// unless it meets a byte that is not a lowercase hex digit.
func (h *hexStream) write(p []byte) int {
	n := 0
	if h.half >= 0 && len(p) > 0 {
		v := unhexLower[p[0]]
		if v > 0xf {
			return 0
		}
		put(&h.blob, []byte{byte(h.half)<<4 | v})
		h.half, n = -1, 1
	}
	pairs := (len(p) - n) / 2
	k := decodeHex(&h.blob, p[n:n+2*pairs])
	if n += k; k == 2*pairs && n < len(p) {
		if v := unhexLower[p[n]]; v <= 0xf {
			h.half, n = int(v), n+1
		}
	}
	return n
}

// rebuild returns the input whose rest, with the digits h took cut out at
// lo, is rest.
func (h *hexStream) rebuild(rest []byte, lo int) []byte {
	blob := h.blob.Sparse()
	data := bytes.NewBuffer(make([]byte, 0, len(rest)+2*blob.Len+1))
	data.Write(rest[:lo])
	writeHex(data, blob)
	if h.half >= 0 {
		data.WriteByte(hexDigits[h.half])
	}
	data.Write(rest[lo:])
	return data.Bytes()
}

// writeHex writes the lowercase hex of s's dense bytes to w: each gap as
// copies of zeroHex, and only the stretches hex-encoded.
func writeHex(w io.Writer, s memsys.Sparse) error {
	var chunk []byte
	at := 0
	for _, st := range s.Stretches {
		if err := writeZeroHex(w, st.Off-at); err != nil {
			return err
		}
		for p := st.Data; len(p) > 0; {
			n := min(len(p), hexChunk)
			chunk = hex.AppendEncode(chunk[:0], p[:n])
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			p = p[n:]
		}
		at = st.Off + len(st.Data)
	}
	return writeZeroHex(w, s.Len-at)
}

// writeZeroHex writes the hex of n zero bytes.
func writeZeroHex(w io.Writer, n int) error {
	for n > 0 {
		k := min(n, hexChunk)
		if _, err := w.Write(zeroHex[:2*k]); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// decodeHex passes a block of hexBlock zero bytes with one comparison.
const hexBlock = 64

const hexDigits = "0123456789abcdef"

var (
	// zeroHex is the hex of hexChunk zero bytes. Writers must not change
	// the bytes they are given, so every write of a gap can share it.
	zeroHex = bytes.Repeat([]byte{'0'}, 2*hexChunk)
	// unhexLower maps each lowercase hex digit to its value and every
	// other byte to 0xff.
	unhexLower = func() (t [256]byte) {
		for i := range t {
			t[i] = 0xff
		}
		for i := range len(hexDigits) {
			t[hexDigits[i]] = byte(i)
		}
		return t
	}()
)

// decodeHex decodes the pairs of lowercase hex digits in src into dst, up
// to the first pair that is not one, and returns how many digits it
// decoded, an even number. A block of zero digits reaches dst as
// hexBlock zeros after one comparison; any other block is decoded a pair
// at a time.
func decodeHex(dst *memsys.SparseWriter, src []byte) int {
	var block [hexBlock]byte
	n, end := 0, len(src)&^1
	for n < end {
		if end-n >= 2*hexBlock && bytes.Equal(src[n:n+2*hexBlock], zeroHex[:2*hexBlock]) {
			dst.Zeros(hexBlock)
			n += 2 * hexBlock
			continue
		}
		k := 0
		for stop := min(end, n+2*hexBlock); n < stop; n, k = n+2, k+1 {
			hi, lo := unhexLower[src[n]], unhexLower[src[n+1]]
			if hi|lo > 0xf {
				put(dst, block[:k])
				return n
			}
			block[k] = hi<<4 | lo
		}
		put(dst, block[:k])
	}
	return n
}

// put gives b to w with its leading and trailing zero bytes as zeros, so a
// run of zeros that blocks or reads cut apart still reaches w whole.
func put(w *memsys.SparseWriter, b []byte) {
	lo, hi := 0, len(b)
	for lo < hi && b[lo] == 0 {
		lo++
	}
	for hi > lo && b[hi-1] == 0 {
		hi--
	}
	w.Zeros(lo)
	w.Write(b[lo:hi])
	w.Zeros(len(b) - hi)
}
