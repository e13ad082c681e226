package other

import "hmtx/internal/prof"

// DumpProf charges unguarded, which is fine off the simulated fast path
// (e.g. a CLI snapshotting a collector it just ran).
func DumpProf(p *prof.Collector) {
	p.Charge(0, 1, prof.Compute, 10)
	p.RunEnd(10, false, 1)
}
