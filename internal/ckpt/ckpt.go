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
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
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
	if err := sys.RestoreCkpt(rs.Engine); err != nil {
		return nil, err
	}
	if err := sys.Mem.RestoreExact(rs.Mem); err != nil {
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
// rejected.
func Read(r io.Reader) (*Doc, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("ckpt: %v", err)
	}
	return decode(buf.Bytes())
}

// ReadFile reads the document at path.
func ReadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := decode(data)
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

// decode parses data and validates the result. The hex digits in the run
// section's memory slot are decoded straight into the blob, and the rest of
// the document goes through json.Unmarshal with that string emptied: a
// 100 MB run checkpoint is a few tens of KB of JSON around its blob. Any
// other layout is decoded whole.
func decode(data []byte) (*Doc, error) {
	var w wireDoc
	mem, split := decodeSplit(data, &w)
	if !split {
		w = wireDoc{}
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("ckpt: %v", err)
		}
	}
	doc := &Doc{Schema: w.Schema, Kind: w.Kind, Experiments: w.Experiments}
	var err error
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

// decodeSplit decodes data into w with its memory slot's hex excised and
// returns the decoded blob. It reports false when data has no slot, or when
// the result could differ from json.Unmarshal of the whole input: the input
// need not be Write's, and a duplicate, case-folded or nested "mem" key
// could supply Run.Mem instead of the slot. Decoding the rest once more
// with the slot set to "00" settles that: Run.Mem follows the slot in both
// decodes only if the slot is its value.
func decodeSplit(data []byte, w *wireDoc) (Blob, bool) {
	lo := bytes.Index(data, memSlot)
	if lo < 0 {
		return nil, false
	}
	lo += len(memSlot)
	n := bytes.IndexByte(data[lo:], '"')
	if n <= 0 {
		return nil, false
	}
	blob := make(Blob, n/2)
	if decodeHex(blob, data[lo:lo+n]) != nil {
		return nil, false
	}
	rest := append(data[:lo:lo], data[lo+n:]...)
	if json.Unmarshal(rest, w) != nil || w.Run == nil || w.Run.Mem != "" {
		return nil, false
	}
	var probe struct {
		Run *struct {
			Mem string `json:"mem"`
		} `json:"run"`
	}
	marked := append(append(rest[:lo:lo], "00"...), rest[lo:]...)
	if json.Unmarshal(marked, &probe) != nil || probe.Run == nil || probe.Run.Mem != "00" {
		return nil, false
	}
	return blob, true
}

// Most of a memory blob is zero: the encoding of the cache sets a run never
// touched. encodeHex and decodeHex pass a zero block of hexBlock bytes with
// one comparison and one copy instead of a table lookup per digit.
const hexBlock = 64

var (
	zeroBlock [hexBlock]byte
	zeroHex   = strings.Repeat("0", 2*hexBlock)
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

// decodeHex is hex.Decode into a zeroed dst of len(src)/2 bytes, with a
// fast path for zero blocks.
func decodeHex(dst, src []byte) error {
	for len(src) >= 2*hexBlock {
		if string(src[:2*hexBlock]) != zeroHex {
			if _, err := hex.Decode(dst[:hexBlock], src[:2*hexBlock]); err != nil {
				return err
			}
		}
		dst, src = dst[hexBlock:], src[2*hexBlock:]
	}
	_, err := hex.Decode(dst, src)
	return err
}
