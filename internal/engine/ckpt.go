package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// This file implements the engine's half of the hmtx-ckpt/v1 checkpoint
// format (internal/ckpt, DESIGN.md §18): capturing and restoring the
// System state that persists across Run calls. The instruments' state is
// captured by the instrument hook (CaptureInstr, obs.go).
//
// Checkpoints are only taken at run boundaries, where the machine is
// quiescent: no program coroutines are live, no core is parked, the bus is
// idle and the inter-stage queues are empty (Run resets all of that state
// anyway). What persists — and is therefore checkpointed — is exactly the
// state Run does NOT reset: committed memory (serialized separately via
// memsys.AppendExact), statistics, the commit frontier, the cumulative cycle
// base, per-core branch predictors and recent-address pools, any lingering
// transaction footprints, and the wrong-path RNG position.

// countingSource wraps the engine's deterministic PRNG source and counts raw
// draws. math/rand's rejection sampling makes "number of Intn calls" an
// unreliable replay coordinate, but the number of underlying Uint64 draws is
// exact: fast-forwarding a fresh source by Draws reproduces the stream
// position bit-for-bit without replacing the generator (whose exact output
// the committed cycle baselines depend on).
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// newCountingSource builds the engine RNG source for the given seed.
func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// fastForward discards draws so the stream position matches a checkpoint.
func (c *countingSource) fastForward(draws uint64) {
	for c.draws < draws {
		c.Uint64()
	}
}

// maxDraws bounds the RNG draws of a machine that has mispredicted
// mispredicts times, issuing at most perBranch wrong-path loads each, and
// whose memory system counted wrongPathLoads of them. Only wrong-path loads
// draw: two Intn calls each, over at most 16 values, where Int31n's
// rejection sampling redraws with probability below 2^-27. Twice the two
// draws per load is headroom no run reaches; a count above it is corrupt,
// and replaying it one draw at a time could take days. The two load counts
// come from separately encoded sections of a checkpoint, so the lesser
// holds unless both are corrupt.
func maxDraws(mispredicts uint64, perBranch int, wrongPathLoads uint64) uint64 {
	if perBranch <= 0 {
		return 0
	}
	if hi, lo := bits.Mul64(mispredicts, uint64(perBranch)); hi == 0 {
		wrongPathLoads = min(wrongPathLoads, lo)
	}
	if wrongPathLoads > math.MaxUint64/4 {
		return math.MaxUint64
	}
	return 4 * wrongPathLoads
}

// CoreCkpt is the persistent state of one simulated core: the branch
// predictor table and the recent-address pool wrong-path loads draw from.
// Everything else in core is reset at the top of every Run.
type CoreCkpt struct {
	Pred    map[uint64]uint8 `json:"pred,omitempty"`
	Recent  []uint64         `json:"recent,omitempty"`
	RecentN int              `json:"recent_n,omitempty"`
}

// TxCkpt is one in-flight transaction footprint. Footprints normally drain
// by the time a run ends (commit deletes them, aborts clear the map), but an
// early-exit squash can leave entries behind; they are carried verbatim.
type TxCkpt struct {
	Read         []uint64 `json:"read,omitempty"`
	Write        []uint64 `json:"write,omitempty"`
	SpecAccesses uint64   `json:"spec_accesses,omitempty"`
	Avoided      uint64   `json:"avoided,omitempty"`
	Begun        bool     `json:"begun,omitempty"`
	BeginAt      int64    `json:"begin_at,omitempty"`
}

// Ckpt is the engine state of an hmtx-ckpt/v1 checkpoint: every System field
// that survives a Run boundary. It marshals deterministically (maps render
// with sorted keys under encoding/json).
type Ckpt struct {
	Stats          Stats             `json:"stats"`
	LastCommitted  uint64            `json:"last_committed"`
	LastCommitTime int64             `json:"last_commit_time"`
	CumCycles      int64             `json:"cum_cycles"`
	RNGDraws       uint64            `json:"rng_draws"`
	Cores          []CoreCkpt        `json:"cores"`
	Txs            map[uint64]TxCkpt `json:"txs,omitempty"`
}

// CaptureCkpt snapshots the persistent engine state. It must be called at a
// run boundary (between Run calls); it panics if the machine is not
// quiescent, because mid-run state (coroutine stacks, parked cores, queue
// contents, operations a core has buffered) is deliberately not
// serializable.
func (s *System) CaptureCkpt() Ckpt {
	if s.nLive != 0 {
		panic("engine: CaptureCkpt during a run")
	}
	ck := Ckpt{
		Stats:          s.stats,
		LastCommitted:  uint64(s.lastCommitted),
		LastCommitTime: s.lastCommitTime,
		CumCycles:      s.cumCycles,
		RNGDraws:       s.rngSrc.draws,
	}
	for _, c := range s.cores {
		if c.parked != parkNone {
			panic("engine: CaptureCkpt with a parked core")
		}
		if c.opAt+1 < c.nOps {
			// Operations queued ahead of the program's last request
			// have not happened yet: the captured clocks, statistics
			// and memory would predate them. A finished core's queue
			// ends at its stepped reqDone.
			panic("engine: CaptureCkpt with buffered operations")
		}
		cc := CoreCkpt{RecentN: c.recentN}
		if len(c.pred) > 0 {
			cc.Pred = make(map[uint64]uint8, len(c.pred))
			for k, v := range c.pred {
				cc.Pred[k] = v
			}
		}
		n := c.recentN
		if n > len(c.recent) {
			n = len(c.recent)
		}
		for i := 0; i < n; i++ {
			cc.Recent = append(cc.Recent, c.recent[i])
		}
		ck.Cores = append(ck.Cores, cc)
	}
	if len(s.txs) > 0 {
		ck.Txs = make(map[uint64]TxCkpt, len(s.txs))
		seqs := make([]vid.Seq, 0, len(s.txs))
		for seq := range s.txs {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			t := s.txs[seq]
			read, write := t.sortedSets()
			ck.Txs[uint64(seq)] = TxCkpt{
				Read:         read,
				Write:        write,
				SpecAccesses: t.specAccesses,
				Avoided:      t.avoided,
				Begun:        t.begun,
				BeginAt:      t.beginAt,
			}
		}
	}
	return ck
}

// sortedSets returns t's read and write sets, each sorted ascending.
func (t *txStats) sortedSets() (read, write []uint64) {
	addrs := make([]uint64, 0, len(t.lines))
	for a := range t.lines {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	read, write = make([]uint64, 0, t.nRead), make([]uint64, 0, t.nWrite)
	for _, a := range addrs {
		if t.lines[a]&txRead != 0 {
			read = append(read, a)
		}
		if t.lines[a]&txWrite != 0 {
			write = append(write, a)
		}
	}
	return read, write
}

// restoreSet sets bit on every line of addrs, a read or write set as
// sortedSets writes it. A list that is not strictly ascending, or holds an
// address that is not line-aligned, is corrupt: its duplicates and strays
// would each count as a line of the set.
func (t *txStats) restoreSet(addrs []uint64, bit uint8) error {
	for i, a := range addrs {
		if a%memsys.LineSize != 0 {
			return fmt.Errorf("address %#x is not line-aligned", a)
		}
		if i > 0 && a <= addrs[i-1] {
			return fmt.Errorf("address %#x follows %#x", a, addrs[i-1])
		}
		t.lines[a] |= bit
	}
	return nil
}

// RestoreCkpt overwrites the persistent engine state with a checkpoint. The
// System must be freshly built by New with the same Config (in particular
// the same Seed and core count) and must not have run yet. Its memory
// hierarchy must already be restored, via Mem.RestoreSparse: the RNG
// position is checked against the wrong-path loads its statistics count.
func (s *System) RestoreCkpt(ck Ckpt) error {
	if len(ck.Cores) != len(s.cores) {
		return fmt.Errorf("engine: checkpoint has %d cores, machine has %d", len(ck.Cores), len(s.cores))
	}
	if s.rngSrc.draws > 0 || s.cumCycles != 0 {
		return fmt.Errorf("engine: RestoreCkpt on a system that already ran")
	}
	wpl := s.Mem.Stats().WrongPathLoads
	if bound := maxDraws(ck.Stats.Mispredicts, s.cfg.WrongPathLoads, wpl); ck.RNGDraws > bound {
		return fmt.Errorf("engine: checkpoint records %d RNG draws, more than %d mispredictions and %d wrong-path loads can make (at most %d)",
			ck.RNGDraws, ck.Stats.Mispredicts, wpl, bound)
	}
	s.stats = ck.Stats
	s.lastCommitted = vid.Seq(ck.LastCommitted)
	s.lastCommitTime = ck.LastCommitTime
	s.cumCycles = ck.CumCycles
	s.rngSrc.fastForward(ck.RNGDraws)
	for i, cc := range ck.Cores {
		c := s.cores[i]
		c.pred = make(map[uint64]uint8, len(cc.Pred))
		var over uint8 // bits above a 2-bit saturating counter's range
		for k, v := range cc.Pred {
			c.pred[k] = v
			over |= v &^ 3
		}
		if over != 0 {
			return fmt.Errorf("engine: core %d checkpoint has a branch-predictor counter above 3", i)
		}
		if cc.RecentN < 0 {
			return fmt.Errorf("engine: core %d checkpoint has negative recent-address count %d", i, cc.RecentN)
		}
		// CaptureCkpt writes the pool's filled prefix: min(RecentN, pool
		// size) addresses, never more or fewer.
		if want := min(cc.RecentN, len(c.recent)); len(cc.Recent) != want {
			return fmt.Errorf("engine: core %d checkpoint has %d recent addresses for a recent-address count of %d, want %d", i, len(cc.Recent), cc.RecentN, want)
		}
		c.recent = [16]memsys.Addr{}
		copy(c.recent[:], cc.Recent)
		c.recentN = cc.RecentN
	}
	s.txs = make(map[vid.Seq]*txStats, len(ck.Txs))
	seqs := make([]uint64, 0, len(ck.Txs))
	for seq := range ck.Txs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		t := ck.Txs[seq]
		ts := &txStats{
			lines:        make(map[memsys.Addr]uint8, len(t.Read)+len(t.Write)),
			nRead:        uint64(len(t.Read)),
			nWrite:       uint64(len(t.Write)),
			specAccesses: t.SpecAccesses,
			avoided:      t.Avoided,
			begun:        t.Begun,
			beginAt:      t.BeginAt,
		}
		if err := ts.restoreSet(t.Read, txRead); err != nil {
			return fmt.Errorf("engine: transaction %d read set: %w", seq, err)
		}
		if err := ts.restoreSet(t.Write, txWrite); err != nil {
			return fmt.Errorf("engine: transaction %d write set: %w", seq, err)
		}
		s.txs[vid.Seq(seq)] = ts
	}
	return nil
}
