package engine

import (
	"hmtx/internal/memsys"
	"hmtx/internal/prof"
)

// SetProf installs the cycle-attribution profiler on the system and its
// memory hierarchy (nil disables profiling). The engine owns simulated time,
// so every site that advances a core clock charges the same amount to a
// prof bucket; the memory system contributes the per-line contention
// counters. Every emit site is behind an Enabled guard (enforced by the
// fastpath analyzer), so the disabled path costs one predictable branch per
// site.
func (s *System) SetProf(p *prof.Collector) {
	s.prof = p
	s.Mem.SetProf(p)
}

// Prof returns the installed collector (possibly nil).
func (s *System) Prof() *prof.Collector { return s.prof }

// srcBucket maps the hierarchy level that served a memory operation to its
// latency-attribution bucket.
func srcBucket(src memsys.Src) prof.Bucket {
	switch src {
	case memsys.SrcPeer:
		return prof.Peer
	case memsys.SrcL2:
		return prof.L2
	case memsys.SrcMem:
		return prof.Mem
	}
	return prof.L1
}
