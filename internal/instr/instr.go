// Package instr is the simulator's one instrument hook (DESIGN.md §10.3).
// The engine and its memory hierarchy share one *Hook, nil when no instrument
// is attached, and hand it one obs.Event per decision point behind one guard,
// `if s.ins.Enabled() { s.ins.Emit(obs.Event{...}) }`, which the fastpath
// analyzer enforces. Emit passes the event by value to each attached
// instrument's Fold, and the hook folds the registry histograms itself; an
// emit site builds no Note string, so an event costs no allocation. The hook
// also captures and restores all instrument state for checkpoints (ckpt.go).
package instr

import (
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// Sinks are the instruments a hook feeds; each is nil when detached.
type Sinks struct {
	Tracer    *obs.Tracer
	Prof      *prof.Collector
	Series    *metrics.Sampler
	Conflicts *metrics.Recorder
	Lat       *metrics.LatHists
	Debug     func(DebugEvent)
}

// Hook feeds each decision point to the attached sinks, which are attached
// by assigning its fields.
type Hook struct {
	Sinks

	reg     [numRegHists]*obs.Histogram // registry histograms; nil until registered (ckpt.go)
	pending map[string]obs.HistCkpt     // restored registry state, applied at registration
}

// Enabled reports whether any instrument is attached: the one guard in front
// of every Emit, safe (and false) on a nil hook.
func (h *Hook) Enabled() bool { return h != nil }

// Attached returns the attached sinks; none on a nil hook.
func (h *Hook) Attached() Sinks {
	if h == nil {
		return Sinks{}
	}
	return h.Sinks
}

// Live returns the profiler's running total of bucket b (0 without one).
func (h *Hook) Live(b prof.Bucket) int64 {
	if p := h.Attached().Prof; p.Enabled() {
		return p.Live(b)
	}
	return 0
}

// DebugEvent describes one scheduler event for a debugger: its global cycle,
// core, transaction, operation mnemonic and line address (memory ops only).
type DebugEvent struct {
	Cycle int64
	Core  int
	Seq   vid.Seq
	Op    string
	Addr  uint64
}

// Emit folds decision point e into every attached instrument. Engine events
// carry the issuing core's clock; memory-system events carry none, and each
// instrument stamps them with the time of the latest KStep.
func (h *Hook) Emit(e obs.Event) {
	if h.Tracer != nil {
		h.Tracer.Fold(e)
	}
	if h.Prof != nil {
		h.Prof.Fold(e)
	}
	if h.Series != nil {
		h.Series.Fold(e)
	}
	if h.Conflicts != nil {
		h.Conflicts.Fold(e)
	}
	if h.Lat != nil {
		h.Lat.Fold(e)
	}
	if regKinds.Has(e.Kind) {
		h.foldReg(e)
	}
}

// regKinds are the kinds foldReg reads.
var regKinds = obs.KindsOf(obs.KTxCommit, obs.KTxFootprint, obs.KMemOp)

// foldReg folds e into the registry histograms that are registered: commit
// latency, the committing transaction's read and write set, and each load's
// or store's latency.
func (h *Hook) foldReg(e obs.Event) {
	switch e.Kind {
	case obs.KTxCommit:
		h.observe(regCommitLat, e.Arg)
	case obs.KTxFootprint:
		h.observe(regReadSet, e.Arg)
		h.observe(regWriteSet, e.Aux)
	case obs.KMemOp:
		h.observe(regLoadLat+int(e.Sub), e.Arg)
	}
}

// observe records v in registry histogram i if it is registered.
func (h *Hook) observe(i int, v uint64) {
	if r := h.reg[i]; r != nil {
		r.Observe(v)
	}
}
