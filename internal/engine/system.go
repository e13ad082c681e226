//go:build go1.23

package engine

import (
	"fmt"
	// iter needs go1.23; the build constraint above raises this file's
	// language version. go.mod stays at 1.22 because the simbench module,
	// which builds against this one, declares 1.22.
	"iter"
	"maps"
	"math/rand"
	"slices"

	"hmtx/internal/instr"
	"hmtx/internal/memsys"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// Program is a workload thread: it runs on one simulated core and interacts
// with the machine exclusively through its Env.
type Program func(*Env)

// RunResult summarises one parallel region execution.
type RunResult struct {
	// Cycles is the simulated execution time: the latest finish time of
	// any participating core.
	Cycles int64
	// Aborted reports that the region ended in a misspeculation abort;
	// all uncommitted transactions were rolled back (§4.4) and the
	// caller must re-execute everything after LastCommitted.
	Aborted bool
	// Cause describes the misspeculation.
	Cause string
	// LastCommitted is the last transaction sequence number whose
	// effects are durable.
	LastCommitted vid.Seq
}

// Stats aggregates engine-level counters across runs.
type Stats struct {
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64

	// Per-transaction aggregates for Table 1 and Figure 9, accumulated
	// at commit time.
	Txs              uint64
	SpecAccesses     uint64 // speculative loads+stores inside transactions
	AvoidedAborts    uint64 // false misspeculations avoided via SLA (§5.1)
	ReadSetBytes     uint64 // distinct lines read, in bytes
	WriteSetBytes    uint64 // distinct lines written, in bytes
	MaxCombinedBytes uint64 // largest single-transaction combined set

	// Abort-cause breakdown (obs.AbortClass buckets) and in-order
	// commit-wait accounting (§4.7), maintained whether or not tracing is
	// enabled.
	AbortsConflict    uint64
	AbortsOverflow    uint64
	AbortsSLA         uint64
	AbortsExplicit    uint64
	AbortsOther       uint64
	CommitStallCycles uint64
}

type parkKind uint8

const (
	parkNone parkKind = iota
	parkConsume
	parkProduce
	parkCommit
	parkAwait
	parkEpoch
)

type core struct {
	id     int
	time   int64
	finish int64
	done   bool
	parked parkKind

	// ops[opAt:nOps] is the core's request queue, in issue order
	// (DESIGN.md §11.6): the Compute and Branch operations its program
	// buffered, then the request the program is suspended at, which a
	// parked core keeps at ops[opAt] until it is woken. While the program
	// runs, ops[:nOps] holds only what it has buffered so far. A program
	// runs only inside resume, so no two programs ever execute at once.
	opAt, nOps uint8

	// next resumes the program's coroutine until its next request; stop
	// ends it. resp is the response the resumed program reads.
	next func() (request, bool)
	stop func()
	resp response

	parkedAt int64 // core clock when it parked (commit-stall accounting)

	curSeq vid.Seq
	// curTx caches the txStats of curSeq for txInfo. It is set at beginMTX
	// and cleared when the transaction commits (on every core running it)
	// or the run aborts; txInfo then reports zero, even if a later access
	// recreates the footprint entry.
	curTx *txStats

	// Branch predictor: per-site 2-bit saturating counters.
	pred map[uint64]uint8
	// Recently touched addresses, the pool wrong-path loads draw from.
	recent  [16]memsys.Addr
	recentN int

	ops [fuseCap + 1]request
}

func (c *core) pushRecent(a memsys.Addr) {
	c.recent[c.recentN%len(c.recent)] = a
	c.recentN++
}

type qItem struct {
	val   uint64
	ready int64
}

type queue struct {
	items       []qItem
	closed      bool
	lastPopTime int64
}

// Footprint bits: a transaction's marks on one line (§4.1, §5.1).
const (
	txRead uint8 = 1 << iota
	txWrite
)

// txStats tracks one in-flight transaction's speculative footprint.
type txStats struct {
	// lines holds the footprint bits of every line the transaction
	// touched; nRead and nWrite count the lines with each bit set, which
	// are its read- and write-set sizes (Fig. 9).
	lines         map[memsys.Addr]uint8
	nRead, nWrite uint64
	specAccesses  uint64
	avoided       uint64

	// begun/beginAt record the cycle of the first beginMTX of this
	// sequence number, for begin-to-commit latency.
	begun   bool
	beginAt int64
}

// System is the simulated multicore machine.
type System struct {
	cfg   Config
	Mem   *memsys.Hierarchy
	cores []*core

	queues map[int]*queue
	txs    map[vid.Seq]*txStats
	// freeTxs holds the footprints of committed and aborted transactions,
	// cleared, for tx to reuse: their maps keep their buckets, so a
	// transaction that touches no more lines than an earlier one
	// allocates nothing.
	freeTxs []*txStats

	lastCommitted  vid.Seq
	lastCommitTime int64

	busFreeAt  int64
	aborting   bool
	abortCause string

	rng    *rand.Rand
	rngSrc *countingSource // rng's underlying source; counts draws (ckpt.go)
	stats  Stats
	nLive  int

	// runq holds the runnable cores — live, not parked, a request pending —
	// as a binary min-heap of their run keys (runKey), which order by
	// (clock, core ID). Its storage is allocated once in New with room for
	// every core.
	runq []uint64
	// wake is set by every event that can satisfy a parked core's wait: a
	// commit, a queue push, pop or close, an abort. runSerial re-examines
	// the parked cores only when it is set (DESIGN.md §11.7).
	wake bool
	// front is the root core runSerial is resuming, nil outside that resume,
	// and limit the smallest other key in the run queue when it did: the
	// lesser of the root's two children, which nothing changes while front's
	// program runs and wake stays unset. While front's key stays below limit
	// the scheduler would pick front again, so Env.rpc handles its next
	// non-parking request inline (DESIGN.md §11.6).
	front *core
	limit uint64

	// ins is the instrument hook shared with Mem (obs.go): tracer,
	// profiler, metrics, registry histograms and debugger. nil when none is
	// attached.
	ins *instr.Hook

	// cumCycles is the summed makespan of completed runs: the global-time
	// base added to a core clock to stamp metrics with monotone simulated
	// time across recovery runs.
	cumCycles int64
}

// New builds a system; the memory hierarchy is fresh and empty.
func New(cfg Config) *System {
	src := newCountingSource(cfg.Seed)
	s := &System{
		cfg:    cfg,
		Mem:    memsys.New(cfg.Mem),
		queues: make(map[int]*queue),
		txs:    make(map[vid.Seq]*txStats),
		rng:    rand.New(src),
		rngSrc: src,
		runq:   make([]uint64, 0, cfg.Mem.Cores),
	}
	s.Mem.SetTracker((*sysTracker)(s))
	for i := 0; i < cfg.Mem.Cores; i++ {
		s.cores = append(s.cores, &core{id: i, pred: make(map[uint64]uint8)})
	}
	return s
}

// Stats returns the engine-level counters.
func (s *System) Stats() *Stats { return &s.stats }

// LastCommitted returns the last durable transaction sequence number.
func (s *System) LastCommitted() vid.Seq { return s.lastCommitted }

// abortSignal unwinds a program when the region aborts.
type abortSignal struct{ cause string }

// Run executes the given programs, one per core starting at core 0, until
// they all finish or the region aborts. Core clocks restart at zero for each
// run; committed memory state, statistics and transaction numbering persist
// across runs, so a caller can re-execute after an abort.
func (s *System) Run(programs []Program) RunResult {
	if len(programs) == 0 || len(programs) > len(s.cores) {
		panic(fmt.Sprintf("engine: %d programs for %d cores", len(programs), len(s.cores)))
	}
	s.aborting = false
	s.abortCause = ""
	s.busFreeAt = 0
	s.front = nil // a panic that surfaced from the last Run skipped the reset
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KRunStart, Core: -1, Arg: uint64(len(programs))})
	}
	s.queues = make(map[int]*queue)
	s.nLive = len(programs)
	live := s.cores[:len(programs)]
	for _, c := range live {
		c.time, c.finish, c.done, c.parked, c.curSeq = 0, 0, false, parkNone, 0
		c.curTx = nil
	}
	// Each program is a coroutine, started in core order and run up to its
	// first request. A program runs only while the scheduler resumes it, so
	// programs may share host-side state (test closures, read-only tables)
	// without data races, and the interleaving is fully deterministic for a
	// given Config.Seed. A program that finishes or unwinds yields reqDone
	// and stays suspended until the deferred stop; a non-abort panic
	// re-surfaces from the resume that ran it, on Run's caller.
	defer func() {
		for _, c := range live {
			if c.stop != nil {
				c.stop()
				c.next, c.stop = nil, nil
			}
		}
	}()
	for i, prog := range programs {
		c := live[i]
		c.next, c.stop = iter.Pull(func(yield func(request) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); !ok {
						panic(r)
					}
				}
				yield(request{kind: reqDone})
			}()
			prog(&Env{sys: s, c: c, yield: yield})
		})
		s.resume(c, response{})
	}

	s.runSerial(live)

	var cycles int64
	for _, c := range live {
		if c.finish > cycles {
			cycles = c.finish
		}
	}
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KRunEnd, Cycle: cycles, Core: -1, Arg: uint64(cycles),
			Note: s.abortCause, Aux: uint64(s.lastCommitted)})
	}
	s.cumCycles += cycles
	return RunResult{
		Cycles:        cycles,
		Aborted:       s.abortCause != "",
		Cause:         s.abortCause,
		LastCommitted: s.lastCommitted,
	}
}

// runSerial is the scheduler loop: one event at a time, the earliest-clock
// runnable core first (lowest core ID on ties). The run queue's root is that
// core; it stays at the root while its event is handled and is then re-keyed
// in place, or popped if it parked or finished. Parked cores are re-examined
// only after an event that can wake one, so a scan that would wake nobody is
// never made. While the root core's program runs, Env.rpc handles its further
// events inline for as long as this loop would pick the same core next (front
// and limit); the loop sees the first event that could change the pick.
// Every other event is the head of the root core's request queue (stepOp).
func (s *System) runSerial(live []*core) {
	s.runq = s.runq[:0]
	for _, c := range live {
		s.pushRunnable(c)
	}
	for s.nLive > 0 {
		if len(s.runq) == 0 {
			s.dumpDeadlock(live)
		}
		c := s.cores[s.runq[0]&runKeyCore]
		s.front, s.limit = c, s.rootLimit()
		s.stepOp(c)
		s.front = nil
		if c.done || c.parked != parkNone {
			s.popRunnable()
		} else {
			s.runq[0] = runKey(c)
			s.siftDown(0)
		}
		if s.wake {
			s.retryParked(live)
			s.wake = false
		}
	}
}

// stepOp steps the head of core c's request queue. The program is suspended
// at the queue's last request, so it is resumed after that request's step,
// unless the core parked (the request stays at the head) or finished; or
// earlier, when that request needs no step of its own: a sync after the last
// buffered operation, or an abort, which discards the rest of the queue and
// unwinds the program at its request. A finished program is not resumed:
// after an abort, its reqDone is stepped next.
func (s *System) stepOp(c *core) {
	resp, ok := s.step(c, c.ops[c.opAt])
	switch last := c.nOps - 1; {
	case resp.abort && c.ops[last].kind == reqDone:
		c.opAt = last
	case c.opAt < last && !resp.abort:
		c.opAt++
		if c.ops[c.opAt].kind == reqSync {
			s.resume(c, resp)
		}
	case ok:
		s.resume(c, resp)
	}
}

// rootLimit is the smallest run key below the run queue's root: the lesser of
// the root's children, or the largest key when the root has none.
func (s *System) rootLimit() uint64 {
	switch len(s.runq) {
	case 1:
		return ^uint64(0)
	case 2:
		return s.runq[1]
	}
	return min(s.runq[1], s.runq[2])
}

// resume hands resp to core c's program and runs the program, on the calling
// goroutine, up to its next request that rpc cannot handle inline or buffer:
// one coroutine switch there and one back. The program starts on an empty
// queue, and the request it yields joins the queue behind what it buffered.
// Every program ends by yielding reqDone and is never resumed after it, so
// the coroutine always has a next request.
func (s *System) resume(c *core, resp response) {
	c.resp = resp
	c.opAt, c.nOps = 0, 0
	r, _ := c.next()
	c.ops[c.nOps] = r
	c.nOps++
}

// runKeyCore masks the core ID out of a run key. memsys caps a machine at 255
// cores, so the ID fits in the low 8 bits.
const runKeyCore = 1<<8 - 1

// runKey is core c's run-queue key: its clock above its core ID, so one
// unsigned compare orders (clock, core ID) — earlier clock first, lower core
// ID on ties.
func runKey(c *core) uint64 {
	if uint64(c.time) >= 1<<56 {
		panic("engine: core clock outside the run queue's key range")
	}
	return uint64(c.time)<<8 | uint64(c.id)
}

// pushRunnable adds c to the run queue. Each core is queued at most once, so
// the storage New allocated always has room.
func (s *System) pushRunnable(c *core) {
	n := len(s.runq)
	s.runq = s.runq[:n+1]
	s.runq[n] = runKey(c)
	s.siftUp(n)
}

// popRunnable removes the run queue's root.
func (s *System) popRunnable() {
	n := len(s.runq) - 1
	s.runq[0] = s.runq[n]
	s.runq = s.runq[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// siftUp restores the heap order above position i.
func (s *System) siftUp(i int) {
	q := s.runq
	k := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if k >= q[p] {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
}

// siftDown restores the heap order below position i.
func (s *System) siftDown(i int) {
	q := s.runq
	k := q[i]
	for {
		m := 2*i + 1
		if m >= len(q) {
			break
		}
		if r := m + 1; r < len(q) && q[r] < q[m] {
			m = r
		}
		if k <= q[m] {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = k
}

func (s *System) dumpDeadlock(live []*core) {
	msg := "engine: deadlock: all cores parked:"
	for _, c := range live {
		msg += fmt.Sprintf(" core%d(done=%v park=%d seq=%d)", c.id, c.done, c.parked, c.curSeq)
	}
	panic(msg)
}

func (s *System) hwVID(q vid.Seq) vid.V {
	if q == 0 {
		return vid.NonSpec
	}
	epoch, v := s.cfg.Mem.VIDSpace.Split(q)
	if epoch != s.Mem.CurrentEpoch() {
		panic(fmt.Sprintf("engine: transaction %d belongs to epoch %d but memory system is in epoch %d", q, epoch, s.Mem.CurrentEpoch()))
	}
	return v
}

func (s *System) tx(q vid.Seq) *txStats {
	t, ok := s.txs[q]
	if !ok {
		if n := len(s.freeTxs); n > 0 {
			t, s.freeTxs = s.freeTxs[n-1], s.freeTxs[:n-1]
		} else {
			t = &txStats{lines: make(map[memsys.Addr]uint8)}
		}
		s.txs[q] = t
	}
	return t
}

// freeTx clears the footprint t, which no s.txs entry or core holds any
// more, and puts it on the free list.
func (s *System) freeTx(t *txStats) {
	clear(t.lines)
	*t = txStats{lines: t.lines}
	s.freeTxs = append(s.freeTxs, t)
}

// txInfo returns the speculative-access count Env.TxInfo reports: the
// footprint of the core's current transaction, zero outside one (or when the
// footprint entry is gone because another core already committed the
// sequence number).
func (s *System) txInfo(c *core) uint64 {
	if c.curTx != nil {
		return c.curTx.specAccesses
	}
	return 0
}

// step handles core c's request r and returns the response to deliver to its
// program. ok is false when there is none to deliver: the core parked, or the
// request was reqDone.
func (s *System) step(c *core, r request) (resp response, ok bool) {
	if s.ins.Enabled() {
		// Stamps subsequent events (including the memory system's, which
		// has no clock of its own) with the issuing core's time.
		s.ins.Emit(obs.Event{Kind: obs.KStep, Cycle: c.time, Arg: uint64(s.cumCycles + c.time)})
		if s.ins.Debug != nil {
			s.ins.Debug(s.debugEvent(c, r))
		}
	}
	if r.kind == reqDone {
		c.done = true
		c.finish = c.time
		s.nLive--
		if s.ins.Enabled() {
			// Sum-to-total invariant: every cycle of this core's clock
			// must have been charged to a bucket (panics on a gap).
			s.ins.Emit(obs.Event{Kind: obs.KCoreDone, Core: int32(c.id), Arg: uint64(c.time)})
		}
		return resp, false
	}
	if s.aborting {
		return response{abort: true}, true
	}
	// Every case either returns early (the core parked, or the run aborted)
	// or falls through to the one response.
	switch r.kind {
	case reqLoad, reqStore:
		hw := s.hwVID(c.curSeq)
		busBefore := s.Mem.Stats().BusMessages
		var res memsys.Result
		if r.kind == reqLoad {
			resp.val, res = s.Mem.Load(c.id, r.arg, hw)
		} else {
			res = s.Mem.Store(c.id, r.arg, r.val, hw)
		}
		busWait := s.charge(c, res.Lat, s.Mem.Stats().BusMessages-busBefore)
		s.stats.Instructions++
		if s.ins.Enabled() {
			s.ins.Emit(obs.Event{Kind: obs.KAccess, Core: int32(c.id), VID: uint64(c.curSeq), Sub: uint8(srcBucket[res.Src]),
				Arg: uint64(res.Lat), Addr: memsys.LineAddr(r.arg), Aux: uint64(busWait)})
		}
		c.pushRecent(r.arg)
		if res.Conflict {
			s.triggerAbort(res.Cause, c)
			return response{abort: true}, true
		}

	case reqCompute:
		s.advance(c, c.curSeq, r.tag, int64(r.val))
		s.stats.Instructions += r.val

	case reqBranch:
		if !s.branch(c, r) {
			return response{abort: true}, true // aborted inside the branch (SLA-disabled mode)
		}

	case reqBegin:
		if !s.begin(c, r) {
			return resp, false // parked on a VID-reset stall (§4.6)
		}

	case reqCommit:
		if r.seq() != s.lastCommitted+1 {
			s.park(c, parkCommit)
			return resp, false
		}
		// The commit proceeded without parking: zero arbitration stall,
		// recorded so the percentiles cover every commit.
		s.doCommit(c, r.seq(), 0, false)

	case reqAbortTx:
		if s.ins.Enabled() {
			s.ins.Emit(obs.Event{Kind: obs.KExplicitAbort, VID: uint64(r.seq())})
		}
		s.triggerAbort(fmt.Sprintf("explicit abortMTX by core %d (seq %d)", c.id, r.seq()), c)
		return response{abort: true}, true

	case reqProduce:
		q := s.queue(r.q())
		if len(q.items) >= s.cfg.QueueCap {
			s.park(c, parkProduce)
			return resp, false
		}
		s.doProduce(c, r.q(), q, r.val)

	case reqConsume:
		q := s.queue(r.q())
		if len(q.items) == 0 {
			if !q.closed {
				s.park(c, parkConsume)
				return resp, false
			}
			break // closed and drained: ok == false
		}
		resp.val, resp.ok = s.doConsume(c, r.q(), q), true

	case reqClose:
		s.queue(r.q()).closed = true
		s.wake = true // drained consumers now see ok == false
		s.advance(c, c.curSeq, prof.Compute, s.cfg.QueueOpCost)
		if s.ins.Enabled() {
			s.ins.Emit(obs.Event{Kind: obs.KQueueClose, Cycle: c.time, Core: int32(c.id), Arg: uint64(r.q())})
		}

	case reqAwait:
		if s.lastCommitted < r.seq() {
			s.park(c, parkAwait)
			return resp, false
		}

	case reqTxInfo:
		resp.val = s.txInfo(c)

	default:
		panic(fmt.Sprintf("engine: unknown request kind %d", r.kind))
	}
	return resp, true
}

// advance moves core c's clock forward n cycles and charges them to bucket b
// of transaction seq, so every cycle a clock moves is charged by
// construction. Memory operations, whose cycles split between bus
// arbitration and latency, are charged by charge and a KAccess event instead.
func (s *System) advance(c *core, seq vid.Seq, b prof.Bucket, n int64) {
	c.time += n
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KCharge, Core: int32(c.id), VID: uint64(seq), Sub: uint8(b), Arg: uint64(n)})
	}
}

// charge advances the core's clock by lat cycles; if the operation used the
// shared bus, the core first arbitrates for it and occupies it for
// busOps transactions, serialising concurrent misses from different cores.
// It returns the cycles spent waiting for bus arbitration (zero when the bus
// was free or unused), so the profiler can split contention from latency.
func (s *System) charge(c *core, lat int64, busOps uint64) int64 {
	if busOps > 0 {
		start := c.time
		if s.busFreeAt > start {
			start = s.busFreeAt
		}
		s.busFreeAt = start + int64(busOps)*s.cfg.BusOccupancy
		wait := start - c.time
		c.time = start + lat
		return wait
	}
	c.time += lat
	return 0
}

func (s *System) queue(id int) *queue {
	q, ok := s.queues[id]
	if !ok {
		q = &queue{}
		s.queues[id] = q
	}
	return q
}

// doProduce appends val to queue q (ID id).
func (s *System) doProduce(c *core, id int, q *queue, val uint64) {
	q.items = append(q.items, qItem{val: val, ready: c.time + s.cfg.QueueLat})
	s.wake = true // a consumer may be waiting for the item
	s.advance(c, c.curSeq, prof.Compute, s.cfg.QueueOpCost)
	s.stats.Instructions++
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KQueueProduce, Cycle: c.time, Core: int32(c.id), Arg: uint64(id)})
	}
}

// doConsume pops the head of queue q (ID id), waiting for it to arrive.
func (s *System) doConsume(c *core, id int, q *queue) uint64 {
	it := q.items[0]
	q.items = q.items[1:]
	s.wake = true // a producer may be waiting for the free slot
	if it.ready > c.time {
		s.advance(c, c.curSeq, prof.QueueWait, it.ready-c.time)
	}
	s.advance(c, c.curSeq, prof.Compute, s.cfg.QueueOpCost)
	q.lastPopTime = c.time
	s.stats.Instructions++
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KQueueConsume, Cycle: c.time, Core: int32(c.id), Arg: uint64(id)})
	}
	return it.val
}

// begin executes beginMTX(seq). It returns false if the core parked waiting
// for outstanding commits before a VID reset (§4.6).
func (s *System) begin(c *core, r request) bool {
	if r.seq() != 0 {
		needEpoch := s.cfg.Mem.VIDSpace.Epoch(r.seq())
		if cur := s.Mem.CurrentEpoch(); needEpoch > cur {
			// All transactions of earlier epochs must commit before
			// the VID space can be reset; this is the pipeline
			// stall the paper's VID-width trade-off is about.
			firstOfEpoch := vid.Seq(needEpoch * s.cfg.Mem.VIDSpace.PerEpoch())
			if s.lastCommitted < firstOfEpoch {
				s.park(c, parkEpoch)
				return false
			}
			res := s.Mem.VIDReset()
			// Epoch machinery, not any one transaction's work: charge
			// to seq 0 so it never folds into wasted.
			s.advance(c, 0, prof.CommitStall, res.Lat)
		}
	}
	c.curSeq = r.seq()
	c.curTx = nil
	s.advance(c, r.seq(), prof.Compute, 1) // the beginMTX instruction itself
	s.stats.Instructions++
	if r.seq() != 0 {
		t := s.tx(r.seq())
		c.curTx = t
		if !t.begun {
			t.begun, t.beginAt = true, c.time
		}
		if s.ins.Enabled() {
			s.ins.Emit(obs.Event{Kind: obs.KTxBegin, Cycle: c.time, Core: int32(c.id), VID: uint64(r.seq())})
		}
	}
	return true
}

// doCommit commits seq on core c after stall cycles of commit arbitration;
// resumed reports that the core had parked for its turn.
func (s *System) doCommit(c *core, seq vid.Seq, stall int64, resumed bool) {
	if s.ins.Enabled() {
		k := obs.KCommitArb
		if resumed {
			k = obs.KCommitResume
		}
		s.ins.Emit(obs.Event{Kind: k, Cycle: c.time, Core: int32(c.id), VID: uint64(seq), Arg: uint64(stall)})
	}
	res := s.Mem.Commit(s.hwVID(seq))
	s.advance(c, seq, prof.Commit, res.Lat)
	s.stats.Instructions++
	s.lastCommitted = seq
	s.wake = true // commit, await and epoch parks wait on lastCommitted
	if c.time > s.lastCommitTime {
		s.lastCommitTime = c.time
	}
	// The footprint entry below is deleted; drop every cached pointer to it
	// (an MTX's sequence number may be current on several cores).
	for _, d := range s.cores {
		if d.curSeq == seq {
			d.curTx = nil
		}
	}
	if c.curSeq == seq {
		c.curSeq = 0 // commitMTX returns to non-speculative execution
	}
	if t, ok := s.txs[seq]; ok {
		s.stats.Txs++
		s.stats.SpecAccesses += t.specAccesses
		s.stats.AvoidedAborts += t.avoided
		rb := t.nRead * memsys.LineSize
		wb := t.nWrite * memsys.LineSize
		s.stats.ReadSetBytes += rb
		s.stats.WriteSetBytes += wb
		if rb+wb > s.stats.MaxCombinedBytes {
			s.stats.MaxCombinedBytes = rb + wb
		}
		// Begin-to-commit latency; the begin may have run on another
		// core whose clock is ahead, so clamp at zero.
		var lat int64
		if t.begun && c.time > t.beginAt {
			lat = c.time - t.beginAt
		}
		if s.ins.Enabled() {
			s.ins.Emit(obs.Event{Kind: obs.KTxFootprint, Arg: rb, Aux: wb})
			s.ins.Emit(obs.Event{Kind: obs.KTxCommit, Cycle: c.time, Core: int32(c.id), VID: uint64(seq), Arg: uint64(lat)})
		}
		delete(s.txs, seq)
		s.freeTx(t)
	}
}

// branch models one conditional branch; it returns false if the core
// aborted while executing wrong-path loads (only possible with SLAs
// disabled).
func (s *System) branch(c *core, r request) bool {
	s.stats.Branches++
	s.stats.Instructions++
	s.advance(c, c.curSeq, prof.Compute, 1)
	ctr := c.pred[r.arg]
	predictTaken := ctr >= 2
	if predictTaken != r.taken {
		s.stats.Mispredicts++
		s.advance(c, c.curSeq, prof.Compute, s.cfg.MispredictPenalty)
		// Squashed wrong-path loads execute before the misprediction
		// is discovered (§5.1). They pull data through the caches but,
		// with SLAs, never mark lines.
		if c.curSeq != 0 && c.recentN > 0 {
			hw := s.hwVID(c.curSeq)
			n := len(c.recent)
			if c.recentN < n {
				n = c.recentN
			}
			for i := 0; i < s.cfg.WrongPathLoads; i++ {
				base := c.recent[s.rng.Intn(n)]
				// Wrong-path loads stray a few lines either side of
				// recently touched data — including into regions
				// that earlier transactions are still writing,
				// which is exactly what SLAs protect against.
				stride := int64(s.rng.Intn(16)-8) * memsys.LineSize
				addr := memsys.Addr(int64(base) + stride)
				_, res := s.Mem.WrongPathLoad(c.id, addr, hw)
				if res.Conflict {
					// Only possible when SLAs are disabled:
					// the squashed load marked a line and
					// tripped over existing versions.
					s.triggerAbort(res.Cause, c)
					return false
				}
			}
		}
	}
	// 2-bit saturating update.
	if r.taken && ctr < 3 {
		c.pred[r.arg] = ctr + 1
	} else if !r.taken && ctr > 0 {
		c.pred[r.arg] = ctr - 1
	}
	return true
}

// triggerAbort rolls back every uncommitted transaction on behalf of core c.
// The caller delivers the abort response that unwinds c's program.
func (s *System) triggerAbort(cause string, c *core) {
	res := s.Mem.AbortAll()
	// Charged to seq 0: the rollback sweep itself is machine overhead,
	// distinct from the wasted re-execution it causes.
	s.advance(c, 0, prof.Abort, res.Lat)
	s.aborting = true
	s.abortCause = cause
	s.wake = true // every parked core unwinds
	switch obs.AbortClass(cause) {
	case "conflict":
		s.stats.AbortsConflict++
	case "overflow":
		s.stats.AbortsOverflow++
	case "sla-mismatch":
		s.stats.AbortsSLA++
	case "explicit":
		s.stats.AbortsExplicit++
	default:
		s.stats.AbortsOther++
	}
	if s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KTxAbort, Cycle: c.time, Core: int32(c.id), VID: uint64(c.curSeq), Note: cause})
	}
	// Discard in-flight transaction footprints; they never committed.
	for _, q := range slices.Sorted(maps.Keys(s.txs)) {
		s.freeTx(s.txs[q])
	}
	clear(s.txs)
	for _, d := range s.cores {
		d.curTx = nil
	}
}

// retryParked re-examines parked cores in core-ID order, waking those whose
// condition now holds, after an event that set s.wake. Iteration repeats until
// a fixed point so that chains (commit unblocking commit unblocking a VID
// reset) resolve in one pass. A woken core is resumed on the spot and runs
// alone until its next request — the serialisation invariant of Run holds here
// too — then joins the run queue.
func (s *System) retryParked(live []*core) {
	for changed := true; changed; {
		changed = false
		for _, c := range live {
			if c.parked == parkNone || c.done {
				continue
			}
			if resp, ok := s.unpark(c); ok {
				c.parked = parkNone
				s.resume(c, resp)
				s.pushRunnable(c)
				changed = true
			}
		}
	}
}

// unpark completes parked core c's request if its wake-up condition now holds
// and returns the response to resume it with; ok is false while c stays
// parked.
func (s *System) unpark(c *core) (resp response, ok bool) {
	if s.aborting {
		return response{abort: true}, true
	}
	r := &c.ops[c.opAt]
	switch c.parked {
	case parkConsume:
		q := s.queue(r.q())
		if len(q.items) == 0 {
			return resp, q.closed // closed and drained: ok == false
		}
		resp.val, resp.ok = s.doConsume(c, r.q(), q), true
	case parkProduce:
		q := s.queue(r.q())
		if len(q.items) >= s.cfg.QueueCap {
			return resp, false
		}
		if q.lastPopTime > c.time {
			s.advance(c, c.curSeq, prof.QueueWait, q.lastPopTime-c.time)
		}
		s.doProduce(c, r.q(), q, r.val)
	case parkCommit:
		if r.seq() != s.lastCommitted+1 {
			return resp, false
		}
		s.waitLastCommit(c, r.seq())
		stall := max(c.time-c.parkedAt, 0)
		s.stats.CommitStallCycles += uint64(stall)
		s.doCommit(c, r.seq(), stall, true)
	case parkAwait:
		if s.lastCommitted < r.seq() {
			return resp, false
		}
		s.waitLastCommit(c, 0)
	case parkEpoch:
		needEpoch := s.cfg.Mem.VIDSpace.Epoch(r.seq())
		if s.lastCommitted < vid.Seq(needEpoch*s.cfg.Mem.VIDSpace.PerEpoch()) {
			return resp, false
		}
		s.waitLastCommit(c, 0)
		return resp, s.begin(c, *r)
	}
	return resp, true
}

// waitLastCommit advances a woken core's clock to the latest commit, charging
// the wait to seq's commit-stall bucket.
func (s *System) waitLastCommit(c *core, seq vid.Seq) {
	if s.lastCommitTime > c.time {
		s.advance(c, seq, prof.CommitStall, s.lastCommitTime-c.time)
	}
}

// park suspends core c on the request at the head of its queue until unpark
// completes it.
func (s *System) park(c *core, k parkKind) {
	c.parked = k
	c.parkedAt = c.time
	if k == parkCommit && s.ins.Enabled() {
		s.ins.Emit(obs.Event{Kind: obs.KCommitStall, Cycle: c.time, Core: int32(c.id), VID: uint64(c.ops[c.opAt].seq())})
	}
}

// sysTracker implements memsys.Tracker on System.
type sysTracker System

func (t *sysTracker) SpecTouch(coreID int, lineAddr memsys.Addr, isStore bool) bool {
	s := (*System)(t)
	c := s.cores[coreID]
	if c.curSeq == 0 {
		return true
	}
	tx := c.curTx
	if tx == nil {
		tx = s.tx(c.curSeq)
	}
	tx.specAccesses++
	marks := tx.lines[lineAddr]
	switch {
	case isStore && marks&txWrite == 0:
		tx.lines[lineAddr] = marks | txWrite
		tx.nWrite++
	case !isStore && marks&txRead == 0:
		tx.lines[lineAddr] = marks | txRead
		tx.nRead++
	}
	return marks != 0
}

func (t *sysTracker) AvoidedAbort(coreID int) {
	s := (*System)(t)
	seq := s.cores[coreID].curSeq
	if seq == 0 {
		return
	}
	s.tx(seq).avoided++
}
