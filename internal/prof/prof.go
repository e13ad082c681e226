// Package prof is the deterministic cycle-attribution profiler (DESIGN.md
// §13), a fold over the simulation's obs.Event stream. The engine charges
// every advance of every simulated core clock to exactly one attribution
// bucket as it happens (KCharge, KAccess); at the end of each run the
// collector folds the charges, reclassifying work done by transactions that
// were later rolled back as wasted re-execution. The invariant — per-core
// buckets sum exactly to the core's total cycles — is checked in-sim at every
// core's completion and is what makes "where did the cycles go" answerable
// without hand-parsing traces: the buckets partition time, they do not sample
// it.
//
// Alongside the time accounting the collector maintains a per-cache-line
// contention heatmap (conflict aborts, overflow aborts, peer transfers,
// access and wasted cycles by line address) and per-VID re-execution records
// (aborted attempts and the cycles they wasted), which extend the
// obs.TxTimeline view with the cost of each abort-then-recommit.
//
// Like obs.Tracer, the zero value of *Collector (nil) is a valid disabled
// profiler: Enabled reports false, and the instrument hook (internal/instr)
// hands events to Fold, its one recording method, only when it is attached.
package prof

import (
	"fmt"

	"hmtx/internal/obs"
)

// Bucket identifies one cycle-attribution class. Every simulated cycle of
// every core lands in exactly one bucket.
type Bucket uint8

const (
	// Compute is instruction execution: plain compute, branches and their
	// misprediction penalties, and queue-operation instruction costs.
	Compute Bucket = iota
	// L1 is latency of memory operations served by the core's own L1.
	L1
	// Peer is latency of operations served by a peer core's L1 over the bus.
	Peer
	// L2 is latency of operations served by the shared L2.
	L2
	// Mem is latency of operations that filled from main memory.
	Mem
	// Bus is bus-contention wait: cycles spent arbitrating for the shared
	// bus while another core's transfer occupies it.
	Bus
	// Commit is the commit-machinery latency of commitMTX itself (§5.3).
	Commit
	// CommitStall is time parked waiting for the in-order commit turn
	// (§4.7), for outstanding commits before a VID reset (§4.6), and in
	// AwaitCommitted.
	CommitStall
	// QueueWait is inter-stage queue backpressure and transfer latency:
	// waiting for a value to become ready, or for space in a full queue.
	QueueWait
	// Validation is software speculation overhead charged by the SMTX
	// baseline: validation-record processing, uncommitted value
	// forwarding, and STM read/write-barrier dilation (§2.3).
	Validation
	// Abort is the abort-rollback sweep latency (§4.4).
	Abort
	// Wasted is re-execution waste: cycles a core spent executing
	// transactions that a later abort rolled back. Charges carry the
	// transaction sequence number they worked for; when a run aborts,
	// every charge to an uncommitted sequence folds into this bucket.
	Wasted

	// NumBuckets is the number of attribution buckets.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"compute", "l1", "peer", "l2", "mem", "bus", "commit",
	"commit_stall", "queue_wait", "validation", "abort", "wasted",
}

// String returns the bucket's stable snake_case name (the JSON key).
func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", uint8(b))
}

// Buckets returns every bucket in declaration order.
func Buckets() []Bucket {
	out := make([]Bucket, NumBuckets)
	for i := range out {
		out[i] = Bucket(i)
	}
	return out
}

// entry is one pending charge: cycles a core spent on behalf of transaction
// seq (0 = non-speculative work), provisionally in bucket b, optionally
// attributed to a cache line.
type entry struct {
	seq     uint64
	line    uint64
	cycles  int64
	bucket  Bucket
	hasLine bool
}

// coreState is one core's accounting.
type coreState struct {
	// pend holds this run's charges, folded by runEnd once the run's
	// outcome (committed vs rolled back) is known.
	pend []entry
	// runTotal is the sum of pending charges, checked against the core's
	// clock at coreDone (the sum-to-total invariant).
	runTotal int64
	// buckets and cycles accumulate folded charges across runs.
	buckets [NumBuckets]int64
	cycles  int64
}

// lineStats is the contention heatmap entry for one cache line.
type lineStats struct {
	conflicts    uint64
	overflows    uint64
	peer         uint64
	accessCycles int64
	wastedCycles int64
}

// txRec records the re-execution cost of one transaction sequence number.
type txRec struct {
	attempts int // aborted (rolled-back) attempts
	wasted   int64
}

// Collector accumulates cycle attribution for one engine.System. It is not
// safe for concurrent use; the engine's serialised scheduler guarantees at
// most one charger at a time.
type Collector struct {
	cores []coreState
	lines map[uint64]*lineStats
	txs   map[uint64]*txRec

	// lineAddrs and txSeqs record first-touch order so snapshots can walk
	// the maps through deterministic key slices instead of ranging them
	// (the detrange rule: map iteration order must never reach output).
	lineAddrs []uint64
	txSeqs    []uint64

	totalCycles int64 // sum over runs of the run's makespan
	runs        int
	abortedRuns int

	// live is the provisional running total per bucket, updated at charge
	// time rather than at the run's end. It feeds the time-series sampler
	// (internal/metrics), which needs mid-run bucket values; unlike the
	// folded per-core buckets it never reclassifies rolled-back work into
	// Wasted, so it shows each charge under its original attribution.
	live [NumBuckets]int64
}

// New returns an empty collector. Core slots grow on demand, so the same
// collector works for any machine size.
func New() *Collector {
	return &Collector{
		lines: make(map[uint64]*lineStats),
		txs:   make(map[uint64]*txRec),
	}
}

// Enabled reports whether profiling is active: the emit-site guard, safe
// (and false) on a nil collector.
func (c *Collector) Enabled() bool { return c != nil }

func (c *Collector) core(id int) *coreState {
	for id >= len(c.cores) {
		c.cores = append(c.cores, coreState{})
	}
	return &c.cores[id]
}

func (c *Collector) line(addr uint64) *lineStats {
	l, ok := c.lines[addr]
	if !ok {
		l = &lineStats{}
		c.lines[addr] = l
		c.lineAddrs = append(c.lineAddrs, addr)
	}
	return l
}

// foldKinds are the kinds Fold reads.
var foldKinds = obs.KindsOf(obs.KCharge, obs.KAccess, obs.KCoreDone, obs.KRunEnd,
	obs.KConflict, obs.KOverflowAbort, obs.KPeer)

// Fold folds one event of the simulation's stream: clock charges, a core's
// completion, a run's end and the line heatmap's conflicts, overflows and
// peer transfers. Every other kind is ignored.
func (c *Collector) Fold(e obs.Event) {
	if foldKinds.Has(e.Kind) {
		c.fold(e)
	}
}

func (c *Collector) fold(e obs.Event) {
	switch e.Kind {
	case obs.KCharge:
		c.charge(int(e.Core), entry{seq: e.VID, cycles: int64(e.Arg), bucket: Bucket(e.Sub)})
	case obs.KAccess:
		c.charge(int(e.Core), entry{seq: e.VID, cycles: int64(e.Aux), bucket: Bus})
		c.charge(int(e.Core), entry{seq: e.VID, line: e.Addr, cycles: int64(e.Arg), bucket: Bucket(e.Sub), hasLine: true})
	case obs.KCoreDone:
		c.coreDone(int(e.Core), int64(e.Arg))
	case obs.KRunEnd:
		c.runEnd(int64(e.Arg), e.Note != "", e.Aux)
	case obs.KConflict:
		c.line(e.Addr).conflicts++
	case obs.KOverflowAbort:
		c.line(e.Addr).overflows++
	case obs.KPeer:
		c.line(e.Addr).peer++
	}
}

// charge attributes e.cycles of core time to e.bucket on behalf of
// transaction e.seq (0 = non-speculative), and to a cache line when
// e.hasLine, feeding the contention heatmap's access and wasted-cycle
// columns. Zero-cycle charges are dropped.
func (c *Collector) charge(core int, e entry) {
	if e.cycles == 0 {
		return
	}
	if e.cycles < 0 {
		panic(fmt.Sprintf("prof: negative charge of %d cycles to %v on core %d", e.cycles, e.bucket, core))
	}
	cs := c.core(core)
	cs.pend = append(cs.pend, e)
	cs.runTotal += e.cycles
	c.live[e.bucket] += e.cycles
}

// Live returns the provisional running total of bucket b: every charge so
// far under its original attribution, regardless of whether its run has
// folded (or will fold it into Wasted).
func (c *Collector) Live(b Bucket) int64 { return c.live[b] }

// coreDone asserts the sum-to-total invariant for one core at the end of a
// run: every cycle of the core's clock must have been charged to a bucket.
// A mismatch is a profiler (or engine) bug and panics immediately, naming
// the gap.
func (c *Collector) coreDone(core int, cycles int64) {
	cs := c.core(core)
	if cs.runTotal != cycles {
		panic(fmt.Sprintf("prof: core %d finished at cycle %d but %d cycles were attributed (gap %+d): a clock advance is missing its Charge",
			core, cycles, cs.runTotal, cycles-cs.runTotal))
	}
	cs.cycles += cycles
}

// runEnd folds the run's pending charges now that the outcome is known.
// makespan is the run's total simulated time (the latest core finish);
// aborted and lastCommitted describe the outcome. In an aborted run, every
// charge made on behalf of a sequence number above lastCommitted was rolled
// back: it folds into the Wasted bucket, into the per-VID re-execution
// record, and into the line heatmap's wasted-cycle column instead of its
// provisional bucket.
func (c *Collector) runEnd(makespan int64, aborted bool, lastCommitted uint64) {
	c.totalCycles += makespan
	c.runs++
	if aborted {
		c.abortedRuns++
	}
	var wastedSeqs []uint64
	seen := make(map[uint64]bool)
	for i := range c.cores {
		cs := &c.cores[i]
		for _, e := range cs.pend {
			if aborted && e.seq > lastCommitted {
				cs.buckets[Wasted] += e.cycles
				c.tx(e.seq).wasted += e.cycles
				if !seen[e.seq] {
					seen[e.seq] = true
					wastedSeqs = append(wastedSeqs, e.seq)
				}
				if e.hasLine {
					c.line(e.line).wastedCycles += e.cycles
				}
				continue
			}
			cs.buckets[e.bucket] += e.cycles
			if e.hasLine {
				c.line(e.line).accessCycles += e.cycles
			}
		}
		cs.pend = cs.pend[:0]
		cs.runTotal = 0
	}
	for _, seq := range wastedSeqs {
		c.tx(seq).attempts++
	}
}

func (c *Collector) tx(seq uint64) *txRec {
	t, ok := c.txs[seq]
	if !ok {
		t = &txRec{}
		c.txs[seq] = t
		c.txSeqs = append(c.txSeqs, seq)
	}
	return t
}
