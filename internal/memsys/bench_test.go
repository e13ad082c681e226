package memsys

import (
	"testing"

	"hmtx/internal/vid"
)

// newBenchH builds a hierarchy for performance benchmarks: MOESI-San off,
// so the numbers reflect the production simulation path (the protocol tests
// run the same scenarios with Sanitize on).
func newBenchH(cores int) *Hierarchy {
	cfg := DefaultConfig()
	cfg.Cores = cores
	return New(cfg)
}

// BenchmarkL1HitLoad measures the single hottest path of the whole
// simulator: a non-speculative load served by the local L1. This path must
// stay allocation-free (TestHotPathZeroAllocs).
func BenchmarkL1HitLoad(b *testing.B) {
	h := newBenchH(2)
	h.PokeWord(addrA, 1)
	h.Load(0, addrA, vid.NonSpec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, addrA, vid.NonSpec)
	}
}

// BenchmarkSnoopMiss measures a bus-snooped miss: alternating cores write
// the same line, so every store misses locally and migrates the line from
// the peer L1 over the bus.
func BenchmarkSnoopMiss(b *testing.B) {
	h := newBenchH(2)
	h.Store(0, addrA, 1, vid.NonSpec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store((i+1)&1, addrA, uint64(i), vid.NonSpec)
	}
}

// BenchmarkSettleAfterCommit measures the lazy-commit settle path (§5.3):
// each iteration creates a speculative version, commits it, and touches the
// line so the pending commit settles on access.
func BenchmarkSettleAfterCommit(b *testing.B) {
	h := newBenchH(2)
	max := uint64(h.Config().VIDSpace.Max())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vid.V(uint64(i)%max + 1)
		if v == 1 && i > 0 {
			h.VIDReset()
		}
		h.Store(0, addrA, uint64(i), v)
		h.Commit(v)
		h.Load(0, addrA, vid.NonSpec)
	}
}

// BenchmarkL1HitNonSpec measures the simulator's hot path: an L1 load hit.
func BenchmarkL1HitNonSpec(b *testing.B) {
	h := newTestH(2)
	h.PokeWord(addrA, 1)
	h.Load(0, addrA, vid.NonSpec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, addrA, vid.NonSpec)
	}
}

// BenchmarkL1HitSpeculative measures a speculative load hit including VID
// comparison and tracker bookkeeping.
func BenchmarkL1HitSpeculative(b *testing.B) {
	h := newTestH(2)
	h.PokeWord(addrA, 1)
	h.Load(0, addrA, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, addrA, 1)
	}
}

// BenchmarkSpecStoreNewVersion measures version creation: each iteration
// stores with a fresh VID, creating an S-O/S-M pair, and commits to bound
// the version chain.
func BenchmarkSpecStoreNewVersion(b *testing.B) {
	h := newTestH(2)
	max := uint64(h.Config().VIDSpace.Max())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vid.V(uint64(i)%max + 1)
		if v == 1 && i > 0 {
			h.VIDReset()
		}
		h.Store(0, addrA, uint64(i), v)
		h.Commit(v)
	}
}

// BenchmarkCrossCacheForwarding measures uncommitted value forwarding: a
// store on one core read by the same transaction on another core.
func BenchmarkCrossCacheForwarding(b *testing.B) {
	h := newTestH(2)
	h.Store(0, addrA, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(1, addrA, 1)
		h.Load(0, addrA, 1)
	}
}

// BenchmarkLazyCommit measures the §5.3 commit: a single LC VID update,
// independent of the resident speculative footprint.
func BenchmarkLazyCommit(b *testing.B) {
	h := newTestH(2)
	max := uint64(h.Config().VIDSpace.Max())
	for i := 0; i < 1000; i++ {
		h.Store(0, Addr(0x10000+i*LineSize), uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vid.V(uint64(i)%max + 1)
		if v == 1 && i > 0 {
			h.VIDReset()
		}
		h.Commit(v)
	}
}

// BenchmarkAbortSweep measures the eager abort flush with a sizable
// speculative footprint resident.
func BenchmarkAbortSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := newTestH(2)
		for j := 0; j < 2000; j++ {
			h.Store(0, Addr(0x10000+j*LineSize), uint64(j), 1)
		}
		b.StartTimer()
		h.AbortAll()
	}
}

// BenchmarkPeekWordLine measures the sequential oracle's read of one
// committed line, the 8 PeekWord calls simbench makes for every line a run
// leaves: the line is resident in one L1 of a 4-core machine.
func BenchmarkPeekWordLine(b *testing.B) {
	h := newBenchH(4)
	h.Store(2, addrA, 1, vid.NonSpec)
	la := LineAddr(addrA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := Addr(0); w < LineSize; w += WordSize {
			h.PeekWord(la + w)
		}
	}
}
