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
	"slices"
	"strings"

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
	// memory-hierarchy encoding (memsys.AppendExact).
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
	// the failing stimulus produced.
	FinalState Blob `json:"final_state,omitempty"`
}

// Blob is an exact memory-hierarchy encoding (memsys.AppendExact). Its JSON
// form is the lowercase hex string of its bytes; Read decodes it.
type Blob []byte

// MarshalJSON returns the blob as a JSON string of lowercase hex.
func (b Blob) MarshalJSON() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(b))+2)
	out[0], out[len(out)-1] = '"', '"'
	hex.Encode(out[1:], b)
	return out, nil
}

func nilIfEmpty(b []byte) Blob {
	if len(b) == 0 {
		return nil
	}
	return b
}

// CaptureRun completes a run checkpoint: the caller fills the identity and
// driver fields of rs (Bench..Every, NextIt, Partial); CaptureRun adds the
// engine, memory and instrument state from sys. The engine must be
// quiescent (between Run calls).
func CaptureRun(sys *engine.System, rs RunState) *Doc {
	rs.Engine = sys.CaptureCkpt()
	rs.Mem = sys.Mem.AppendExact(nil)
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
	if err := memsys.CheckExact(rs.EngineCfg.Mem, rs.Mem); err != nil {
		return nil, err
	}
	sys := engine.New(rs.EngineCfg)
	if err := sys.RestoreInstr(rs.Ckpt); err != nil {
		return nil, err
	}
	if err := sys.Mem.RestoreExact(rs.Mem); err != nil {
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

// hexChunk is how many blob bytes Write hex-encodes per write.
const hexChunk = 32 << 10

// Write serialises the document as deterministic indented JSON: the bytes
// json.MarshalIndent gives for the whole document, plus a newline. The
// run section's memory blob, nearly all of a run checkpoint, never passes
// through encoding/json: the document is marshalled with the blob empty,
// and the blob's hex is streamed into its slot in fixed-size chunks.
func Write(w io.Writer, doc *Doc) error {
	var blob Blob
	if doc.Run != nil && len(doc.Run.Mem) > 0 {
		rs := *doc.Run
		blob, rs.Mem = rs.Mem, nil
		d := *doc
		d.Run = &rs
		doc = &d
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	at := len(buf)
	if blob != nil {
		if at = bytes.Index(buf, memSlot); at < 0 {
			return fmt.Errorf("ckpt: no memory slot in the marshalled run section")
		}
		at += len(memSlot)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(buf) + hex.EncodedLen(len(blob)) + 1) // one allocation for a *bytes.Buffer
	}
	if _, err := w.Write(buf[:at]); err != nil {
		return err
	}
	chunk := make([]byte, hex.EncodedLen(min(len(blob), hexChunk)))
	for len(blob) > 0 {
		n := min(len(blob), hexChunk)
		encodeHex(chunk, blob[:n])
		if _, err := w.Write(chunk[:2*n]); err != nil {
			return err
		}
		blob = blob[n:]
	}
	_, err = w.Write(append(buf[at:], '\n'))
	return err
}

// WriteFile writes the document to path.
func WriteFile(path string, doc *Doc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a checkpoint document. The result is what
// json.Unmarshal of the whole input gives, and every input it rejects is
// rejected. A run checkpoint is not held whole: the memory slot's hex is
// decoded into the blob as it is read (readSplit). A reader with a Len
// method, such as a *bytes.Reader, gets its blob in one allocation.
func Read(r io.Reader) (*Doc, error) {
	size := -1
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	return read(r, size, readBuf)
}

// ReadFile reads the document at path.
func ReadFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := -1
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = int(fi.Size())
	}
	doc, err := read(f, size, readBuf)
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

// readBuf is the read buffer size of Read and ReadFile.
const readBuf = 64 << 10

// read is Read given the input's length in bytes (or -1 when unknown) and
// a read buffer size.
func read(r io.Reader, size, bufSize int) (*Doc, error) {
	var w wireDoc
	mem, data, split, err := readSplit(r, size, bufSize, &w)
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
		if doc.Check.FinalState, err = hexBlob(w.Check.FinalState); err != nil {
			return nil, err
		}
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

func hexBlob(s string) (Blob, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("ckpt: corrupt memory encoding: %v", err)
	}
	return nilIfEmpty(b), nil
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
func readSplit(r io.Reader, size, bufSize int, w *wireDoc) (blob Blob, data []byte, split bool, err error) {
	br := bufio.NewReaderSize(r, bufSize)
	// The input up to the slot's first digit. The slot opens with the
	// only newline a JSON string cannot hold, so it is looked for after
	// each line.
	var head []byte
	for {
		line, err := br.ReadSlice('\n')
		head = append(head, line...)
		if err == io.EOF {
			return nil, head, false, nil
		} else if err == bufio.ErrBufferFull {
			continue
		} else if err != nil {
			return nil, nil, false, err
		}
		if p, _ := br.Peek(len(memSlot) - 1); bytes.Equal(p, memSlot[1:]) {
			head = append(head, p...)
			br.Discard(len(p))
			break
		}
	}
	lo := len(head)
	h := hexStream{half: -1}
	if size > lo {
		h.blob = make(Blob, 0, (size-lo)/2)
	}
	// The digits up to the closing quote, or to the first byte that is
	// not a lowercase hex digit.
	var chunk []byte
	for {
		chunk, err = br.ReadSlice('"')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, nil, false, err
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
		return nil, nil, false, err
	}
	data = rest.Bytes()
	if h.half < 0 && splitRest(data, lo, w) {
		return nilIfEmpty(h.blob), nil, true, nil
	}
	return nil, h.rebuild(data, lo), false, nil
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

// hexStream decodes lowercase hex digits into blob as they arrive.
type hexStream struct {
	blob Blob
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
		h.blob = append(h.blob, byte(h.half)<<4|v)
		h.half, n = -1, 1
	}
	at, pairs := len(h.blob), (len(p)-n)/2
	h.blob = slices.Grow(h.blob, pairs)[:at+pairs]
	k := decodeHex(h.blob[at:], p[n:n+2*pairs])
	h.blob = h.blob[:at+k/2]
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
	data := make([]byte, 0, len(rest)+2*len(h.blob)+1)
	data = hex.AppendEncode(append(data, rest[:lo]...), h.blob)
	if h.half >= 0 {
		data = append(data, hexDigits[h.half])
	}
	return append(data, rest[lo:]...)
}

// Most of a memory blob is zero: the encoding of the cache sets a run never
// touched. encodeHex and decodeHex pass a zero block of hexBlock bytes with
// one comparison and one copy instead of a table lookup per digit.
const hexBlock = 64

const hexDigits = "0123456789abcdef"

var (
	zeroBlock [hexBlock]byte
	zeroHex   = strings.Repeat("0", 2*hexBlock)
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

// encodeHex is hex.Encode with a fast path for zero blocks.
func encodeHex(dst, src []byte) {
	for len(src) >= hexBlock {
		if bytes.Equal(src[:hexBlock], zeroBlock[:]) {
			copy(dst, zeroHex)
		} else {
			hex.Encode(dst, src[:hexBlock])
		}
		dst, src = dst[2*hexBlock:], src[hexBlock:]
	}
	hex.Encode(dst, src)
}

// decodeHex decodes the pairs of lowercase hex digits in src into dst, which
// holds len(src)/2 bytes, up to the first pair that is not one. It returns
// how many digits it decoded, an even number, with a fast path for zero
// blocks.
func decodeHex(dst, src []byte) int {
	n, end := 0, len(src)&^1
	for n < end {
		if end-n >= 2*hexBlock && string(src[n:n+2*hexBlock]) == zeroHex {
			clear(dst[n/2 : n/2+hexBlock])
			n += 2 * hexBlock
			continue
		}
		for stop := min(end, n+2*hexBlock); n < stop; n += 2 {
			hi, lo := unhexLower[src[n]], unhexLower[src[n+1]]
			if hi|lo > 0xf {
				return n
			}
			dst[n/2] = hi<<4 | lo
		}
	}
	return n
}
