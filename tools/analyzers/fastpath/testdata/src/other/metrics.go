package other

import "hmtx/internal/metrics"

// DumpMetrics records unguarded, which is fine off the simulated fast path
// (e.g. a CLI snapshotting an instrument it just ran).
func DumpMetrics(sm *metrics.Sampler, r *metrics.Recorder) {
	sm.Flush(100)
	r.Record(1, 2, 0x40, metrics.EdgeConflict)
}
