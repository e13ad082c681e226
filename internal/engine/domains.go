package engine

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"hmtx/internal/memsys"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// This file implements the domain-sharded parallel scheduler (DESIGN.md §16):
// an intra-run parallelisation of the serial event loop in system.go that is
// byte-identical to it. The simulated cores are partitioned into Domains
// contiguous groups; inside a *round*, each group's worker goroutine advances
// its cores through operations that touch only core-private state (compute,
// correct-path branches, txInfo reads, loads served by the core's own L1 —
// memsys.TryLocalLoad), while every operation that can reach shared state
// (the bus, the L2, peers' caches, commits, queues, aborts) is a *global*
// operation, handled one at a time by the coordinator exactly as the serial
// scheduler would.
//
// Determinism comes from a conservative ordering bound, not from locks. Every
// operation has a key
//
//	key = coreTime<<8 | coreID
//
// — the serial scheduler's pick order (earliest clock first, lowest core ID
// on ties; IDs fit 8 bits because memsys caps Cores at 255). Each core
// publishes a monotone atomic *bound*: a lower limit on the key of any
// operation it has not yet executed, with a final bit meaning the bound can
// no longer rise this round. A worker may execute its core's pending fast
// operation with key k only while k is below every other core's bound, so no
// fast operation ever runs ahead of a pending operation that could still
// reach shared state below it. Fast operations themselves commute physically
// — they touch disjoint, core-private state — so the executed set before any
// global operation is exactly {fast ops with smaller key}, independent of
// host thread timing, and the round's side effects on shared counters are
// buffered per core and replayed in canonical key order at the round barrier
// (drainRound). The round horizon additionally caps lookahead at the
// configured quantum (memsys.Config.Quantum: the minimum cross-core
// interaction latency, derived from the bus/L2 latencies).

// useRounds reports whether this run executes on the parallel scheduler.
// Instruments that observe per-operation order on the serial path — the
// event tracer, an attached debugger hook, MOESI-San (whose touch sets
// assume one operation at a time) and raw load/store latency histograms —
// force the serial reference loop.
func (s *System) useRounds() bool {
	return s.cfg.Domains > 1 && s.tracer == nil && s.debug == nil &&
		!s.cfg.Mem.Sanitize && !s.Mem.HasLatencyHists() && s.cfg.Mem.Quantum() > 0
}

// coreKey is the canonical scheduling key: cycle-major, core-ID minor.
func coreKey(c *core) int64 { return c.time<<8 | int64(c.id) }

// Rounds and FastOps report parallel-scheduler activity across all runs:
// quantum rounds opened, and operations executed inside them (off the serial
// coordinator). Both are zero when Domains <= 1 or an instrument forced the
// serial fallback; callers use them to verify the parallel path engaged.
func (s *System) Rounds() int64 { return s.rounds }

// FastOps reports how many operations executed inside rounds; see Rounds.
func (s *System) FastOps() int64 { return s.fastOps }

// seqRelease drops one live-core reference to a transaction sequence number.
func (s *System) seqRelease(seq vid.Seq) {
	if n := s.liveSeq[seq]; n <= 1 {
		delete(s.liveSeq, seq)
	} else {
		s.liveSeq[seq] = n - 1
	}
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

// fastRec buffers one fast operation's effects on shared accumulators, to be
// replayed in key order at the round barrier. The physical effects (core
// clock, branch predictor, L1 state, transaction footprint) were applied
// directly by the worker; they commute across cores.
type fastRec struct {
	key      int64
	core     int
	seq      vid.Seq
	kind     reqKind
	instr    uint64      // engine instruction count delta
	charge   int64       // profiler cycles (compute: val; branch: 1; load: latency)
	bucket   prof.Bucket // compute/branch charge bucket
	src      memsys.Src  // load: serving level (always the local L1)
	lineAddr memsys.Addr // load: line charged in the contention heatmap
	specLoad bool        // load: counted in SpecLoads
}

// roundState is the scratch shared by one System's rounds (reused across
// rounds; only the coordinator touches it outside a round).
type roundState struct {
	// bounds[i] is live[i]'s published bound, encoded key<<1|final. It is
	// monotone within a round and written only by live[i]'s worker (the
	// coordinator initialises it between rounds).
	bounds  []atomic.Int64
	horizon int64       // first key past the quantum window
	quantum int64       // conservative lookahead, memsys.Config.Quantum()
	recs    [][]fastRec // per-core buffered effects, in issue order
	scratch []fastRec   // merge buffer for drainRound

	// Persistent worker pool: one goroutine per domain for the whole run
	// (spawning per round would dominate small rounds). start[w] wakes
	// worker w for one round; active counts workers still inside it; the
	// last one out signals done. spans[w] is worker w's slice of live.
	start  []chan struct{}
	spans  [][2]int
	active atomic.Int64
	done   chan struct{}

	// panics[w] holds a program panic raised while worker w resumed one of
	// its cores; the coordinator re-raises it after the barrier.
	panics []any
}

const advBlocked, advAdvanced, advExited = 0, 1, 2

// runRounds is the parallel counterpart of runSerial. The coordinator picks
// the earliest-key runnable core exactly like the serial loop; when that
// operation is fast it opens a round (quantum-bounded parallel execution,
// barrier, canonical drain), otherwise it handles the operation serially.
// Global operations therefore interleave with rounds in exactly the serial
// schedule's order, and rounds execute exactly the fast operations the
// serial schedule would have executed next.
func (s *System) runRounds(live []*core) {
	rs := &roundState{
		bounds:  make([]atomic.Int64, len(live)),
		recs:    make([][]fastRec, len(live)),
		quantum: s.cfg.Mem.Quantum(),
		done:    make(chan struct{}, 1),
	}
	domains := s.cfg.Domains
	if domains > len(live) {
		domains = len(live)
	}
	per := (len(live) + domains - 1) / domains
	for lo := 0; lo < len(live); lo += per {
		hi := lo + per
		if hi > len(live) {
			hi = len(live)
		}
		rs.start = append(rs.start, make(chan struct{}, 1))
		rs.spans = append(rs.spans, [2]int{lo, hi})
	}
	rs.panics = make([]any, len(rs.start))
	for w := range rs.start {
		go s.domainWorker(rs, live, w)
	}
	defer func() {
		for _, ch := range rs.start {
			close(ch)
		}
	}()
	for s.nLive > 0 {
		c := s.pickRunnable(live)
		if c == nil {
			s.dumpDeadlock(live)
		}
		if !s.aborting {
			if _, ok := s.fastEligible(c, c.pendingReq); ok {
				s.runRound(rs, live)
				continue
			}
		}
		r := c.pendingReq
		c.hasReq = false
		s.handle(c, r)
		c.fastFailed = false
		s.retryParked(live)
	}
}

// fastEligible reports whether the pending request can execute inside a
// round, touching only core-private state. Loads additionally need the
// memory-system side (TryLocalLoad) to agree; a refusal there sets
// c.fastFailed so the coordinator falls back to the serial path for that one
// operation.
func (s *System) fastEligible(c *core, r request) (delta int64, ok bool) {
	switch r.kind {
	case reqCompute:
		return int64(r.val), true
	case reqBranch:
		// Only correct-path branches: a mispredict issues wrong-path
		// loads through the shared hierarchy and draws on the global RNG.
		if (c.pred[r.site] >= 2) == r.taken {
			return 1, true
		}
		return 0, false
	case reqTxInfo:
		// The footprint counter is core-private only while no other live
		// core shares the transaction.
		if c.curSeq != 0 && s.liveSeq[c.curSeq] > 1 {
			return 0, false
		}
		return 0, true
	case reqLoad:
		if c.fastFailed {
			return 0, false
		}
		if c.curSeq == 0 {
			return s.cfg.Mem.L1Lat, true
		}
		t := c.curTx
		if t == nil || s.liveSeq[c.curSeq] > 1 {
			return 0, false
		}
		// The line must already be in the transaction's access sets:
		// then the serial path's SpecTouch would report it as already
		// tracked and send no SLA, so the worker can replicate the
		// footprint update without consulting the shared tracker.
		la := memsys.LineAddr(r.addr)
		if _, inR := t.read[la]; !inR {
			if _, inW := t.write[la]; !inW {
				return 0, false
			}
		}
		return s.cfg.Mem.L1Lat, true
	}
	return 0, false
}

// runRound executes one quantum-bounded parallel round: freeze per-core
// bounds, wake the persistent domain workers, wait for the round barrier,
// then drain the buffered effects in canonical key order.
func (s *System) runRound(rs *roundState, live []*core) {
	minKey := int64(math.MaxInt64)
	for _, c := range live {
		if !c.done && c.parked == parkNone && c.hasReq {
			if k := coreKey(c); k < minKey {
				minKey = k
			}
		}
	}
	s.rounds++
	rs.horizon = minKey + rs.quantum<<8
	for i, c := range live {
		if c.done || c.parked != parkNone {
			// Inert this round: parked cores wake only through global
			// operations, which run between rounds.
			rs.bounds[i].Store(math.MaxInt64) // odd: final
			continue
		}
		k := coreKey(c)
		if _, ok := s.fastEligible(c, c.pendingReq); ok && k < rs.horizon {
			rs.bounds[i].Store(k << 1)
		} else {
			rs.bounds[i].Store(k<<1 | 1)
		}
	}
	rs.active.Store(int64(len(rs.start)))
	for _, ch := range rs.start {
		ch <- struct{}{}
	}
	<-rs.done
	for _, p := range rs.panics {
		if p != nil {
			panic(p)
		}
	}
	s.drainRound(rs)
}

// domainWorker is one domain's persistent worker goroutine: it sleeps
// between rounds and, when woken, advances its span of cores until every one
// has left the round (blocked on a global operation, the horizon, or a
// smaller frozen bound elsewhere). The last worker out signals the barrier.
func (s *System) domainWorker(rs *roundState, live []*core, w int) {
	span := rs.spans[w]
	act := make([]int, 0, span[1]-span[0])
	defer func() {
		// A program panicked in a resume: finalise the span's bounds so
		// the other workers end the round, and leave the panic for the
		// coordinator to re-raise after the barrier.
		if p := recover(); p != nil {
			rs.panics[w] = p
			for i := span[0]; i < span[1]; i++ {
				rs.bounds[i].Store(math.MaxInt64)
			}
			if rs.active.Add(-1) == 0 {
				rs.done <- struct{}{}
			}
		}
	}()
	for range rs.start[w] {
		act = act[:0]
		for i := span[0]; i < span[1]; i++ {
			if rs.bounds[i].Load()&1 == 0 {
				act = append(act, i)
			}
		}
		for len(act) > 0 {
			progress := false
			for i := 0; i < len(act); {
				switch s.advanceCore(rs, act[i], live[act[i]]) {
				case advAdvanced:
					progress = true
					i++
				case advExited:
					act[i] = act[len(act)-1]
					act = act[:len(act)-1]
				default:
					i++
				}
			}
			if !progress && len(act) > 0 {
				runtime.Gosched()
			}
		}
		if rs.active.Add(-1) == 0 {
			rs.done <- struct{}{}
		}
	}
}

// advanceCore executes as many consecutive fast operations for core c as one
// conservative snapshot of the other cores' bounds allows. Bounds are
// monotone within a round, so a key strictly below the lowest bound observed
// in the snapshot stays safe for the whole batch — one O(cores) scan covers
// many operations.
func (s *System) advanceCore(rs *roundState, idx int, c *core) int {
	finalMin, openMin := int64(math.MaxInt64), int64(math.MaxInt64)
	for j := range rs.bounds {
		if j == idx {
			continue
		}
		v := rs.bounds[j].Load()
		k := v >> 1
		if v&1 != 0 {
			if k < finalMin {
				finalMin = k
			}
		} else if k < openMin {
			openMin = k
		}
	}
	advanced := false
	for {
		k := coreKey(c)
		if _, ok := s.fastEligible(c, c.pendingReq); !ok || k >= rs.horizon {
			rs.bounds[idx].Store(k<<1 | 1)
			return advExited
		}
		if finalMin <= k {
			// A frozen bound at or below our key: an operation that must
			// be ordered before ours is pending for the coordinator, so
			// this core is done for the round.
			rs.bounds[idx].Store(k<<1 | 1)
			return advExited
		}
		if openMin <= k {
			// Another core may still produce a smaller-key operation;
			// its bound can only rise, so rescan on the next pass.
			if advanced {
				return advAdvanced
			}
			return advBlocked
		}
		if !s.execFast(rs, idx, c) {
			c.fastFailed = true
			rs.bounds[idx].Store(k<<1 | 1)
			return advExited
		}
		advanced = true
	}
}

// execFast executes c's pending fast operation: applies its core-private
// physical effects, buffers its shared-accumulator effects, publishes the
// core's advanced bound, and resumes the program up to its next request.
// Returns false only for a load the memory system refused, leaving all state
// untouched except possibly settled versions in c's own L1 (a no-op under the
// serial schedule's lazy-commit rules — see memsys.TryLocalLoad).
func (s *System) execFast(rs *roundState, idx int, c *core) bool {
	r := c.pendingReq
	rec := fastRec{key: coreKey(c), core: c.id, seq: c.curSeq, kind: r.kind}
	var resp response
	switch r.kind {
	case reqCompute:
		c.time += int64(r.val)
		rec.instr = r.val
		rec.charge = int64(r.val)
		rec.bucket = r.tag
	case reqBranch:
		ctr := c.pred[r.site]
		c.time++
		rec.instr = 1
		rec.charge = 1
		rec.bucket = prof.Compute
		if r.taken && ctr < 3 {
			c.pred[r.site] = ctr + 1
		} else if !r.taken && ctr > 0 {
			c.pred[r.site] = ctr - 1
		}
	case reqTxInfo:
		resp.val = s.txInfo(c)
	case reqLoad:
		hw := s.hwVID(c.curSeq)
		val, res, specHit, ok := s.Mem.TryLocalLoad(c.id, r.addr, hw, s.series.Enabled())
		if !ok {
			return false
		}
		c.time += res.Lat
		rec.instr = 1
		rec.charge = res.Lat
		rec.src = res.Src
		rec.lineAddr = memsys.LineAddr(r.addr)
		rec.specLoad = specHit
		if specHit {
			// The serial path's trackLoad, for a line already in the
			// access sets: count the access, re-insert, no SLA.
			c.curTx.specAccesses++
			c.curTx.read[rec.lineAddr] = struct{}{}
		}
		c.pushRecent(r.addr)
		resp.val = val
	}
	rs.recs[idx] = append(rs.recs[idx], rec)
	rs.bounds[idx].Store(coreKey(c) << 1)
	c.hasReq = false
	s.resume(c, resp)
	return true
}

// drainRound is the canonical barrier drain: the per-core effect buffers are
// merged and replayed in key order (cycle, then core ID, then per-core issue
// order — sort.SliceStable preserves the latter for equal keys), applying to
// the shared accumulators exactly the sequence of updates the serial
// scheduler interleaves between its per-operation sampler ticks.
func (s *System) drainRound(rs *roundState) {
	n := 0
	for i := range rs.recs {
		n += len(rs.recs[i])
	}
	if n == 0 {
		return
	}
	all := rs.scratch[:0]
	for i := range rs.recs {
		all = append(all, rs.recs[i]...)
		rs.recs[i] = rs.recs[i][:0]
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].key < all[b].key })
	s.fastOps += int64(n)
	ms := s.Mem.Stats()
	for i := range all {
		rec := &all[i]
		if s.series.Enabled() {
			// The serial scheduler ticks the sampler with the issuing
			// core's pre-operation clock; the key's high bits are
			// exactly that clock.
			s.series.Tick(s.cumCycles + rec.key>>8)
		}
		switch rec.kind {
		case reqCompute:
			s.stats.Instructions += rec.instr
			if s.prof.Enabled() {
				s.prof.Charge(rec.core, uint64(rec.seq), rec.bucket, rec.charge)
			}
			if s.lat.Enabled() && rec.bucket == prof.Validation {
				s.lat.Validation.Observe(rec.instr)
			}
		case reqBranch:
			s.stats.Branches++
			s.stats.Instructions++
			if s.prof.Enabled() {
				s.prof.Charge(rec.core, uint64(rec.seq), rec.bucket, rec.charge)
			}
		case reqLoad:
			ms.L1Hits++
			if rec.specLoad {
				ms.SpecLoads++
			}
			s.stats.Instructions++
			if s.prof.Enabled() {
				s.prof.ChargeLine(rec.core, uint64(rec.seq), srcBucket(rec.src), rec.charge, rec.lineAddr)
			}
		}
	}
	rs.scratch = all[:0]
}
