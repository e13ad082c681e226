package engine

import (
	"fmt"

	"hmtx/internal/obs"
)

// SetTracer installs the event tracer on the system and its memory hierarchy
// (nil disables tracing). Every emit site in this package is behind an
// Enabled guard (enforced by the fastpath analyzer), so the disabled path
// costs one predictable branch per site.
func (s *System) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.Mem.SetTracer(t)
}

// Tracer returns the installed tracer (possibly nil).
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// setBounds buckets per-transaction footprint sizes in bytes.
var setBounds = []uint64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}

// latBounds buckets begin-to-commit latencies in cycles.
var latBounds = []uint64{64, 256, 1024, 4096, 16384}

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

	s.histCommitLat = g.Histogram("commit_latency", "begin-to-commit latency in cycles", latBounds)
	s.histReadSet = g.Histogram("tx_read_set", "per-transaction read set in bytes", setBounds)
	s.histWriteSet = g.Histogram("tx_write_set", "per-transaction write set in bytes", setBounds)
}

// AddObsHistCkpts adds the engine's registry-histogram state to dst under
// prefix, for hmtx-ckpt/v1 checkpoints (DESIGN.md §18). A no-op when no
// registry is attached: the histograms only exist — and only fill — while
// registered.
func (s *System) AddObsHistCkpts(prefix string, dst map[string]obs.HistCkpt) {
	if s.histCommitLat == nil {
		return
	}
	dst[prefix+"commit_latency"] = s.histCommitLat.Ckpt()
	dst[prefix+"tx_read_set"] = s.histReadSet.Ckpt()
	dst[prefix+"tx_write_set"] = s.histWriteSet.Ckpt()
}

// RestoreObsHistCkpts restores the engine's registry-histogram state from a
// checkpoint. Register must have been called first.
func (s *System) RestoreObsHistCkpts(prefix string, src map[string]obs.HistCkpt) error {
	if s.histCommitLat == nil {
		return fmt.Errorf("engine: RestoreObsHistCkpts before Register")
	}
	for _, e := range []struct {
		name string
		h    *obs.Histogram
	}{
		{"commit_latency", s.histCommitLat},
		{"tx_read_set", s.histReadSet},
		{"tx_write_set", s.histWriteSet},
	} {
		ck, ok := src[prefix+e.name]
		if !ok {
			return fmt.Errorf("engine: checkpoint is missing histogram %s%s", prefix, e.name)
		}
		if err := e.h.RestoreCkpt(ck); err != nil {
			return err
		}
	}
	return nil
}

// Emit records a software-runtime event (e.g. an SMTX validation span) on
// this program's core, stamped with the core's current cycle. Events of
// disabled categories cost one branch and are dropped without being built —
// callers pass a literal, so construction is cheap either way.
func (e *Env) Emit(ev obs.Event) {
	tr := e.sys.tracer
	if tr.Enabled(ev.Kind.Category()) {
		ev.Core = int32(e.c.id)
		tr.SetTime(e.c.time)
		tr.Emit(ev)
	}
}
