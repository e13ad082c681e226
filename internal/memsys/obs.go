package memsys

import (
	"fmt"

	"hmtx/internal/instr"
	"hmtx/internal/obs"
)

// Hook returns the instrument hook the hierarchy feeds (DESIGN.md §10.3),
// creating it on first use; an engine.System shares it.
func (h *Hierarchy) Hook() *instr.Hook {
	if h.ins == nil {
		h.ins = &instr.Hook{}
	}
	return h.ins
}

// Register mounts the hierarchy's statistics under prefix in r:
// per-cache hit counters, every Stats field, derived hit-rate scalars, and
// load/store latency histograms (which only fill while registered).
func (h *Hierarchy) Register(r *obs.Registry, prefix string) {
	g := r.Group(prefix)
	for i, l1 := range h.l1s {
		l1 := l1
		g.Group(fmt.Sprintf("l1[%d]", i)).CounterFunc("hits", "requests served by this L1", func() uint64 { return l1.hits })
	}
	g.Group("l2").CounterFunc("hits", "requests served by the shared L2", func() uint64 { return h.l2.hits })

	s := &h.stats
	g.CounterFunc("l1_hits", "requests served by the local L1", func() uint64 { return s.L1Hits })
	g.CounterFunc("peer_transfers", "requests served by a peer L1 over the bus", func() uint64 { return s.PeerTransfers })
	g.CounterFunc("l2_hits", "requests served by the shared L2", func() uint64 { return s.L2Hits })
	g.CounterFunc("mem_reads", "line fills from main memory", func() uint64 { return s.MemReads })
	g.CounterFunc("mem_writes", "line writebacks to main memory", func() uint64 { return s.MemWrites })
	g.CounterFunc("bus_messages", "broadcast requests on the L1-L2 bus", func() uint64 { return s.BusMessages })
	g.CounterFunc("spec_loads", "speculative loads executed (correct path)", func() uint64 { return s.SpecLoads })
	g.CounterFunc("spec_stores", "speculative stores executed", func() uint64 { return s.SpecStores })
	g.CounterFunc("wrong_path_loads", "squashed branch-speculative loads (§5.1)", func() uint64 { return s.WrongPathLoads })
	g.CounterFunc("versions_created", "new speculative line versions created", func() uint64 { return s.VersionsCreated })
	g.CounterFunc("slas_sent", "speculative load acknowledgments sent (§5.1)", func() uint64 { return s.SLAsSent })
	g.CounterFunc("avoided_aborts", "false misspeculations avoided by SLAs (Table 1)", func() uint64 { return s.AvoidedAborts })
	g.CounterFunc("so_writebacks", "non-speculative S-O lines overflowed to memory (§5.4)", func() uint64 { return s.SOWritebacks })
	g.CounterFunc("overflow_aborts", "aborts forced by speculative LLC overflow (§5.4)", func() uint64 { return s.OverflowAborts })
	g.CounterFunc("forced_evicts", "evictions injected by Hierarchy.Evict (model checker)", func() uint64 { return s.ForcedEvicts })
	g.CounterFunc("commits", "transaction group commits (LC VID advances)", func() uint64 { return s.Commits })
	g.CounterFunc("aborts", "abort sweeps", func() uint64 { return s.Aborts })
	g.CounterFunc("vid_resets", "VID epoch resets (§4.6)", func() uint64 { return s.VIDResets })

	g.Scalar("l1_hit_rate", "fraction of requests served by the local L1", func() float64 {
		total := s.L1Hits + s.PeerTransfers + s.L2Hits + s.MemReads
		return float64(s.L1Hits) / float64(total)
	})

	h.Hook().Register(g, "memsys")
}
