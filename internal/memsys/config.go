// Package memsys implements the simulated multicore memory hierarchy of the
// HMTX paper: per-core L1 caches and a shared L2 connected by a snoopy bus,
// running a MOESI coherence protocol extended with the HMTX speculative
// states S-M, S-O, S-E and S-S (paper §4).
//
// The hierarchy stores real data (64-byte lines backed by a word-addressable
// main memory), enforces the versioned hit/miss rules of §4.1, detects
// dependence violations per §4.3, and implements lazy commits (§5.3),
// speculative-load acknowledgments (§5.1), VID overflow/reset (§4.6) and
// speculative overflow of non-speculative S-O copies to memory (§5.4).
package memsys

import (
	"errors"

	"hmtx/internal/vid"
)

// LineSize is the cache line size in bytes (Table 2).
const LineSize = 64

// WordSize is the access granularity of simulated loads and stores.
const WordSize = 8

// Addr is a simulated physical address.
type Addr = uint64

// Config describes the simulated hardware, defaulting to Table 2 of the
// paper.
type Config struct {
	// Cores is the number of cores, each with a private L1 data cache.
	Cores int

	// L1Size and L1Ways configure each private L1 data cache.
	L1Size, L1Ways int
	// L2Size and L2Ways configure the shared L2 cache.
	L2Size, L2Ways int

	// L1Lat, L2Lat and MemLat are access latencies in cycles (Table 2).
	L1Lat, L2Lat, MemLat int64
	// BusLat is the latency of a cache-to-cache transfer or broadcast on
	// the shared snoopy bus.
	BusLat int64

	// VIDSpace is the hardware VID width (6 bits in the paper, §4.5).
	VIDSpace vid.Space

	// SLAEnabled selects whether speculative load acknowledgments guard
	// against branch-misprediction-induced false misspeculation (§5.1).
	// When disabled, wrong-path loads mark cache lines directly, as in
	// all prior systems (§7.2).
	SLAEnabled bool

	// Sanitize enables MOESI-San, the global-invariant checker of
	// sanitize.go: every protocol transaction is followed by an assertion
	// pass over the lines it touched, and aborts verify the whole
	// hierarchy. Checking is observational (it cannot change timing or
	// eviction behaviour) but costs host time; it is off by default and
	// meant for tests and the -sanitize flag of cmd/hmtxsim.
	Sanitize bool

	// EagerCommit disables the lazy commit scheme of §5.3: every commit
	// sweeps all caches and transitions each speculative line
	// immediately, paying cycles proportional to the resident lines —
	// the naive scheme of §4.4 (and of Vachharajani's proposal, §7.1).
	// It exists for the lazy-vs-eager ablation.
	EagerCommit bool

	// InjectBug deliberately re-introduces a fixed protocol bug, selected
	// by one of the Bug* constants below. It exists to validate the model
	// checker (internal/check): a correct checker must find a
	// counterexample for every injectable bug, and the checker's own test
	// suite asserts exactly that. Empty means no injection.
	InjectBug string
}

// Injectable protocol bugs: the two latent transition-table bugs found and
// fixed while building MOESI-San. Each names the fix it disables.
const (
	// BugDupVersionOnMigrate re-breaks remote speculative loads served by
	// a non-speculative owner: the migrated line is installed *before* its
	// speculative-read transition, so a stale same-version S-S copy in the
	// requester's L1 no longer merges with it and lingers as a duplicate
	// that can double-serve its VID range.
	BugDupVersionOnMigrate = "dup-version-on-migrate"

	// BugStaleCopyOnConvert re-breaks in-place conversions of a line the
	// requester's L1 already holds (speculative read upgrade, new-version
	// store, same-version re-store): stale local S-S copies of the
	// converted version are left resident instead of being dropped or
	// range-capped, so they can serve VIDs that must observe newer data.
	BugStaleCopyOnConvert = "stale-sscopy-on-convert"
)

// DefaultConfig returns the architectural configuration of Table 2:
// 4 cores, 64KB 8-way L1s (2-cycle), a 32MB 32-way shared L2 (40-cycle),
// 200-cycle memory, 64B lines, and 6-bit VIDs.
func DefaultConfig() Config {
	return Config{
		Cores:      4,
		L1Size:     64 << 10,
		L1Ways:     8,
		L2Size:     32 << 20,
		L2Ways:     32,
		L1Lat:      2,
		L2Lat:      40,
		MemLat:     200,
		BusLat:     40,
		VIDSpace:   vid.DefaultSpace,
		SLAEnabled: true,
	}
}

// Validate reports whether the configuration is internally consistent; New
// panics on the error it returns.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return errors.New("memsys: Cores must be positive")
	case c.Cores > 255:
		// The snoop filter keeps one presence bit per cache (Cores L1s
		// plus the L2) in a presMask, sized for 256 caches.
		return errors.New("memsys: at most 255 cores supported")
	case c.L1Size <= 0 || c.L1Ways <= 0 || c.L1Size%(c.L1Ways*LineSize) != 0:
		return errors.New("memsys: invalid L1 geometry")
	case c.L2Size <= 0 || c.L2Ways <= 0 || c.L2Size%(c.L2Ways*LineSize) != 0:
		return errors.New("memsys: invalid L2 geometry")
	case c.VIDSpace.Bits == 0 || c.VIDSpace.Bits > 8:
		return errors.New("memsys: VID width must be in 1..8")
	case c.InjectBug != "" && c.InjectBug != BugDupVersionOnMigrate && c.InjectBug != BugStaleCopyOnConvert:
		return errors.New("memsys: unknown InjectBug " + c.InjectBug)
	}
	return nil
}

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr Addr) Addr { return addr &^ (LineSize - 1) }
