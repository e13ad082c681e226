package engine

import (
	"testing"

	"hmtx/internal/vid"
)

// BenchmarkTxFootprint measures a transaction's footprint bookkeeping: each
// iteration begins a transaction on one core, loads 8 lines and stores to 8
// others, and commits it. After the first iteration every access is an L1
// hit, so the cost is the engine's per-access and per-transaction work.
func BenchmarkTxFootprint(b *testing.B) {
	s := newSys()
	b.ReportAllocs()
	s.Run([]Program{func(e *Env) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := vid.Seq(i + 1)
			e.Begin(seq)
			for j := 0; j < 8; j++ {
				e.Load(privLine(j))
				e.Store(privLine(8+j), uint64(i))
			}
			e.Commit(seq)
		}
	}})
}
