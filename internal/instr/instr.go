// Package instr is the simulator's one instrument hook (DESIGN.md §10.3).
// The engine and its memory hierarchy share one *Hook, nil when no instrument
// is attached, and call one On* method per decision point behind one guard,
// `if s.ins.Enabled() { s.ins.OnTxCommit(...) }`. The hook fans out to the
// attached sinks, each behind its own nil or category check, so no obs.Event
// or Note string is built unless a sink wants it; the fastpath analyzer
// enforces both layers of guards. The hook also captures and restores all
// instrument state for checkpoints (ckpt.go).
package instr

import (
	"fmt"

	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// Sinks are the instruments a hook fans out to; each is nil when detached.
type Sinks struct {
	Tracer    *obs.Tracer
	Prof      *prof.Collector
	Series    *metrics.Sampler
	Conflicts *metrics.Recorder
	Lat       *metrics.LatHists
	Debug     func(DebugEvent)
}

// Hook fans each decision point out to the attached sinks, which are attached
// by assigning its fields.
type Hook struct {
	Sinks

	reg     [numRegHists]*obs.Histogram // registry histograms; nil until registered (ckpt.go)
	pending map[string]obs.HistCkpt     // restored registry state, applied at registration
}

// Enabled reports whether any instrument is attached: the one guard in front
// of every On* call, safe (and false) on a nil hook.
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

// Engine decision points. Cycles are the issuing core's clock.

// OnStep marks a scheduler event before it runs on a core whose clock reads
// now, at global cycle global: it stamps the tracer, whose hierarchy events
// carry this time, ticks the sampler and stamps the recorder. The engine then
// hands the event to Debug, when one is attached.
func (h *Hook) OnStep(now, global int64) {
	h.Tracer.SetTime(now)
	if h.Series.Enabled() {
		h.Series.Tick(global)
	}
	if h.Conflicts.Enabled() {
		h.Conflicts.SetTime(global)
	}
}

// OnCharge charges n cycles a clock advanced to bucket b of transaction seq;
// a Validation charge is also one validation batch's latency.
func (h *Hook) OnCharge(core int, seq uint64, b prof.Bucket, n int64) {
	if h.Prof.Enabled() {
		h.Prof.Charge(core, seq, b, n)
	}
	if b == prof.Validation && h.Lat.Enabled() {
		h.Lat.Validation.Observe(uint64(n))
	}
}

// OnAccess charges a load or store: busWait cycles to the bus, lat to b.
func (h *Hook) OnAccess(core int, seq uint64, busWait int64, b prof.Bucket, lat int64, line uint64) {
	if h.Prof.Enabled() {
		h.Prof.Charge(core, seq, prof.Bus, busWait)
		h.Prof.ChargeLine(core, seq, b, lat, line)
	}
}

// OnCoreDone checks that every cycle of a finished core's clock was charged.
func (h *Hook) OnCoreDone(core int, cycles int64) {
	if h.Prof.Enabled() {
		h.Prof.CoreDone(core, cycles)
	}
}

// OnTx records a transaction's control event on core: beginMTX(seq)
// (KTxBegin), a committer parking for its in-order turn (KCommitStall), or
// the region aborting with cause while core ran seq (KTxAbort).
func (h *Hook) OnTx(kind obs.Kind, cycle int64, core int, seq uint64, cause string) {
	if h.Tracer.Enabled(kind.Category()) {
		h.Tracer.EmitAt(cycle, obs.Event{Kind: kind, Core: int32(core), VID: seq, Note: cause})
	}
}

// OnCommitStart records a commit's turn after a stall; resumed if it parked.
func (h *Hook) OnCommitStart(cycle int64, core int, seq uint64, stall int64, resumed bool) {
	if h.Lat.Enabled() {
		h.Lat.CommitArb.Observe(uint64(stall))
	}
	if resumed && h.Tracer.Enabled(obs.CatCommit) {
		h.Tracer.EmitAt(cycle, obs.Event{Kind: obs.KCommitResume, Core: int32(core), VID: seq, Arg: uint64(stall)})
	}
}

// OnTxCommit records commitMTX(seq): its latency and read/write set bytes.
func (h *Hook) OnTxCommit(cycle int64, core int, seq, lat, readBytes, writeBytes uint64) {
	if r := h.reg[regCommitLat]; r != nil {
		r.Observe(lat)
		h.reg[regReadSet].Observe(readBytes)
		h.reg[regWriteSet].Observe(writeBytes)
	}
	if h.Lat.Enabled() {
		h.Lat.Open.Observe(lat)
	}
	if h.Tracer.Enabled(obs.CatTxn) {
		h.Tracer.EmitAt(cycle, obs.Event{Kind: obs.KTxCommit, Core: int32(core), VID: seq, Arg: lat})
	}
}

// OnExplicitAbort records a software abortMTX: seq rolled itself back.
func (h *Hook) OnExplicitAbort(seq uint64) {
	if h.Conflicts.Enabled() {
		h.Conflicts.Record(seq, seq, 0, metrics.EdgeExplicit)
	}
}

// OnQueue records a produce, consume or close (kind) on inter-stage queue q.
func (h *Hook) OnQueue(cycle int64, core int, kind obs.Kind, q int) {
	if h.Tracer.Enabled(obs.CatQueue) {
		h.Tracer.EmitAt(cycle, obs.Event{Kind: kind, Core: int32(core), Arg: uint64(q)})
	}
}

// OnRunStart records a region execution starting on cores cores.
func (h *Hook) OnRunStart(cores int) {
	if h.Tracer.Enabled(obs.CatEngine) {
		h.Tracer.EmitAt(0, obs.Event{Kind: obs.KRunStart, Core: -1, Arg: uint64(cores)})
	}
}

// OnRunEnd records a region ending at cycle cycles, aborted when cause is
// set, and folds the run's profiler charges (rolled-back work to Wasted).
func (h *Hook) OnRunEnd(cycles int64, cause string, lastCommitted uint64) {
	if h.Tracer.Enabled(obs.CatEngine) {
		h.Tracer.EmitAt(cycles, obs.Event{Kind: obs.KRunEnd, Core: -1, Arg: uint64(cycles), Note: cause})
	}
	if h.Prof.Enabled() {
		h.Prof.RunEnd(cycles, cause != "", lastCommitted)
	}
}

// OnEmit records a software-runtime event such as an SMTX validation span.
func (h *Hook) OnEmit(cycle int64, core int, e obs.Event) {
	if h.Tracer.Enabled(e.Kind.Category()) {
		e.Core = int32(core)
		h.Tracer.EmitAt(cycle, e)
	}
}

// Memory-system decision points carry the time of the engine's latest event;
// v is a hardware VID.

// OnMemOp records a load's latency, or a store's when store is set.
func (h *Hook) OnMemOp(store bool, lat int64) {
	r := h.reg[regLoadLat]
	if store {
		r = h.reg[regStoreLat]
	}
	if r != nil {
		r.Observe(uint64(lat))
	}
}

// OnLine records a protocol event on line by core (-1 for none): a bus
// request (KBusRequest, note "load", "store" or "upgrade"), a version created
// or its S-O copy written back (KVersionCreate, KSOWriteback; v the highVID),
// a wrong-path load, an SLA sent, or a false misspeculation an SLA avoided
// (KWrongPath, KSLASent, KSLAAvoided).
func (h *Hook) OnLine(kind obs.Kind, core int, line, v uint64, note string) {
	if h.Tracer.Enabled(kind.Category()) {
		h.Tracer.Emit(obs.Event{Kind: kind, Core: int32(core), Addr: line, VID: v, Note: note})
	}
}

// OnPeer records a peer L1 serving line over the bus.
func (h *Hook) OnPeer(line uint64) {
	if h.Prof.Enabled() {
		h.Prof.LinePeer(line)
	}
}

// OnStateChange records line changing protocol state.
func (h *Hook) OnStateChange(line, v uint64, from, to fmt.Stringer) {
	if h.Tracer.Enabled(obs.CatCache) {
		h.Tracer.Emit(obs.Event{Kind: obs.KStateChange, Core: -1, Addr: line, VID: v,
			Note: from.String() + "->" + to.String()})
	}
}

// OnConflict records misspeculation on line: aborter (0 if unknown) rolls
// back victim.
func (h *Hook) OnConflict(line, aborter, victim uint64, kind metrics.EdgeKind) {
	if h.Prof.Enabled() {
		h.Prof.LineConflict(line)
	}
	if h.Conflicts.Enabled() {
		h.Conflicts.Record(aborter, victim, line, kind)
	}
}

// OnOverflow records victim's version of line (modVID mod) leaving the LLC.
func (h *Hook) OnOverflow(line, victim, mod uint64) {
	if h.Prof.Enabled() {
		h.Prof.LineOverflow(line)
	}
	if h.Conflicts.Enabled() {
		// Capacity, not contention: the machine is the aborter.
		h.Conflicts.Record(0, victim, line, metrics.EdgeOverflow)
	}
	if h.Tracer.Enabled(obs.CatOverflow) {
		h.Tracer.Emit(obs.Event{Kind: obs.KOverflowAbort, Core: -1, Addr: line, VID: mod})
	}
}

// OnLC records the LC VID register moving: a commit to v (arg: frames an
// eager commit swept), an abort sweep back to v, or a VID reset to epoch arg.
func (h *Hook) OnLC(kind obs.Kind, v, arg uint64) {
	if h.Tracer.Enabled(kind.Category()) {
		h.Tracer.Emit(obs.Event{Kind: kind, Core: -1, VID: v, Arg: arg})
	}
}
