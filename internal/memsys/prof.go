package memsys

import "hmtx/internal/prof"

// SetProf installs the cycle-attribution profiler's collector (nil disables
// profiling). The hierarchy feeds it the contention heatmap — per-line
// conflict aborts, overflow aborts and peer transfers — while the engine,
// which owns simulated time, charges the latency buckets using Result.Src.
// Every emit site in this package is behind an Enabled guard (enforced by
// the fastpath analyzer), so the disabled path costs one predictable branch
// per site.
func (h *Hierarchy) SetProf(p *prof.Collector) { h.prof = p }

// Prof returns the installed collector (possibly nil).
func (h *Hierarchy) Prof() *prof.Collector { return h.prof }
