package engine

import (
	"fmt"

	"hmtx/internal/instr"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

// hook returns the instrument hook (DESIGN.md §10.3), shared with and
// created by the hierarchy. Each setter below installs one instrument into
// it (nil detaches it); each getter returns the installed one or nil.
func (s *System) hook() *instr.Hook {
	s.ins = s.Mem.Hook()
	return s.ins
}

// SetTracer installs the event tracer.
func (s *System) SetTracer(t *obs.Tracer) { s.hook().Tracer = t }

// Tracer returns the installed tracer.
func (s *System) Tracer() *obs.Tracer { return s.ins.Attached().Tracer }

// SetProf installs the cycle-attribution profiler: every cycle a core clock
// advances is charged to a bucket (advance).
func (s *System) SetProf(p *prof.Collector) { s.hook().Prof = p }

// Prof returns the installed profiler.
func (s *System) Prof() *prof.Collector { return s.ins.Attached().Prof }

// SetSeries installs the windowed time-series sampler and registers the
// standard probe set. Every scheduler event ticks it with the global
// simulated cycle (completed runs' cycles plus the core clock), appending one
// row per crossed window boundary. The validation_cycles and commit_cycles
// columns read the profiler's live buckets and stay zero without one.
func (s *System) SetSeries(sm *metrics.Sampler) {
	s.hook().Series = sm
	if sm.Enabled() {
		ms := s.Mem.Stats()
		sm.Probe("instructions", func() uint64 { return s.stats.Instructions })
		sm.Probe("txs_committed", func() uint64 { return s.stats.Txs })
		sm.Probe("aborts", func() uint64 {
			return s.stats.AbortsConflict + s.stats.AbortsOverflow + s.stats.AbortsSLA +
				s.stats.AbortsExplicit + s.stats.AbortsOther
		})
		sm.Probe("commit_stall_cycles", func() uint64 { return s.stats.CommitStallCycles })
		sm.Probe("bus_messages", func() uint64 { return ms.BusMessages })
		sm.Probe("spec_lines", func() uint64 { return s.Mem.SpecOccupancy() })
		sm.Probe("validation_cycles", func() uint64 { return uint64(s.ins.Live(prof.Validation)) })
		sm.Probe("commit_cycles", func() uint64 { return uint64(s.ins.Live(prof.Commit)) })
	}
}

// Series returns the installed sampler.
func (s *System) Series() *metrics.Sampler { return s.ins.Attached().Series }

// FlushSeries takes one final sample at the current global simulated cycle,
// capturing the tail of the execution past the last window boundary. Callers
// invoke it once after the workload (including recovery runs) completes.
func (s *System) FlushSeries() {
	if sm := s.Series(); sm.Enabled() {
		sm.Flush(s.cumCycles)
	}
}

// SetConflicts installs the who-aborted-whom conflict recorder.
func (s *System) SetConflicts(r *metrics.Recorder) { s.hook().Conflicts = r }

// Conflicts returns the installed recorder.
func (s *System) Conflicts() *metrics.Recorder { return s.ins.Attached().Conflicts }

// SetLatHists installs the latency-histogram bundle: open→commit latency per
// commit, validation-batch latency per ComputeValidation charge, and
// commit-arbitration stall per commit (zero when the commit never parked).
func (s *System) SetLatHists(l *metrics.LatHists) { s.hook().Lat = l }

// LatHists returns the installed histogram bundle.
func (s *System) LatHists() *metrics.LatHists { return s.ins.Attached().Lat }

// SetDebugHook installs fn to be called for every scheduler event, before it
// executes, stamped with the global simulated cycle.
func (s *System) SetDebugHook(fn func(DebugEvent)) { s.hook().Debug = fn }

// DebugEvent describes one scheduler event for an attached debugger
// (cmd/hmtxdbg).
type DebugEvent = instr.DebugEvent

// debugEvent describes request r of core c as the debugger sees it.
func (s *System) debugEvent(c *core, r request) DebugEvent {
	ev := DebugEvent{
		Cycle: s.cumCycles + c.time,
		Core:  c.id,
		Seq:   c.curSeq,
		Op:    r.kind.String(),
	}
	switch r.kind {
	case reqLoad, reqStore:
		ev.Addr = memsys.LineAddr(r.arg)
	case reqBegin, reqCommit, reqAbortTx, reqAwait:
		ev.Seq = r.seq()
	}
	return ev
}

// CaptureInstr snapshots every attached instrument for a checkpoint.
func (s *System) CaptureInstr() instr.Ckpt { return s.ins.CaptureCkpt() }

// RestoreInstr attaches the instruments a checkpoint was captured with and
// restores their state; registry-histogram state applies when Register runs.
func (s *System) RestoreInstr(ck instr.Ckpt) error {
	if ck.Attached() == ([len(instr.Instruments)]bool{}) {
		return nil // a bare checkpoint leaves the hook off
	}
	if ck.Prof != nil {
		s.SetProf(prof.New())
	}
	if ck.Series != nil {
		s.SetSeries(metrics.NewSampler(ck.Series.Window)) // registers the probes
	}
	if ck.Conflicts != nil {
		s.SetConflicts(metrics.NewRecorder(ck.Conflicts.Window))
	}
	if ck.Hists != nil {
		s.SetLatHists(metrics.NewLatHists())
	}
	return s.hook().RestoreCkpt(ck)
}

// Register mounts the engine's statistics under "engine" in r: instruction
// and branch counters, per-transaction aggregates, the abort-cause breakdown,
// per-core cycle counts, and commit-latency / footprint histograms (which
// only fill while registered).
func (s *System) Register(r *obs.Registry) {
	g := r.Group("engine")
	st := &s.stats
	g.CounterFunc("instructions", "instructions executed", func() uint64 { return st.Instructions })
	g.CounterFunc("branches", "conditional branches executed", func() uint64 { return st.Branches })
	g.CounterFunc("mispredicts", "branch mispredictions", func() uint64 { return st.Mispredicts })
	g.CounterFunc("commit_stall_cycles", "cycles parked waiting for in-order commit (§4.7)", func() uint64 { return st.CommitStallCycles })

	tx := g.Group("tx")
	tx.CounterFunc("count", "transactions committed", func() uint64 { return st.Txs })
	tx.CounterFunc("spec_accesses", "speculative accesses inside committed transactions", func() uint64 { return st.SpecAccesses })
	tx.CounterFunc("avoided_aborts", "false misspeculations avoided via SLA (§5.1)", func() uint64 { return st.AvoidedAborts })
	tx.CounterFunc("read_set_bytes", "distinct lines read, in bytes", func() uint64 { return st.ReadSetBytes })
	tx.CounterFunc("write_set_bytes", "distinct lines written, in bytes", func() uint64 { return st.WriteSetBytes })
	tx.CounterFunc("max_combined_bytes", "largest single-transaction combined set", func() uint64 { return st.MaxCombinedBytes })

	ab := g.Group("aborts")
	ab.CounterFunc("conflict", "aborts from cross-transaction dependence violations (§4.3)", func() uint64 { return st.AbortsConflict })
	ab.CounterFunc("overflow", "aborts from speculative LLC overflow (§5.4)", func() uint64 { return st.AbortsOverflow })
	ab.CounterFunc("sla_mismatch", "aborts from SLA replay mismatches (§5.1)", func() uint64 { return st.AbortsSLA })
	ab.CounterFunc("explicit", "software abortMTX aborts (§3.2)", func() uint64 { return st.AbortsExplicit })
	ab.CounterFunc("other", "aborts with an unclassified cause", func() uint64 { return st.AbortsOther })

	for i, c := range s.cores {
		c := c
		g.Group(fmt.Sprintf("core[%d]", i)).CounterFunc("cycles", "core cycle count at snapshot", func() uint64 { return uint64(c.time) })
	}

	s.hook().Register(g, "engine")
}

// Emit records a software-runtime event (e.g. an SMTX validation span) on
// this program's core, stamped with the core's current cycle. Like Now, it
// first waits for the core's buffered operations, so the event lands after
// them in the stream.
func (e *Env) Emit(ev obs.Event) {
	if ins := e.sys.ins; ins.Enabled() {
		e.sync()
		ev.Cycle, ev.Core = e.c.time, int32(e.c.id)
		ins.Emit(ev)
	}
}

// srcBucket maps the hierarchy level that served a memory operation to its
// latency-attribution bucket.
var srcBucket = [...]prof.Bucket{memsys.SrcL1: prof.L1, memsys.SrcPeer: prof.Peer, memsys.SrcL2: prof.L2, memsys.SrcMem: prof.Mem}
