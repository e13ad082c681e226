package engine

import (
	"fmt"

	"hmtx/internal/memsys"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

type reqKind uint8

const (
	reqLoad reqKind = iota
	reqStore
	reqCompute
	reqBranch
	reqBegin
	reqCommit
	reqAbortTx
	reqProduce
	reqConsume
	reqClose
	reqAwait
	reqTxInfo
	reqDone
	// reqSync asks for the core's clock after its buffered operations; it
	// is never stepped (System.stepOp).
	reqSync
)

var reqKindNames = [...]string{
	"load", "store", "compute", "branch", "begin", "commit", "abort",
	"produce", "consume", "close", "await", "txinfo", "done", "sync",
}

// String is the request's debugger mnemonic (DebugEvent.Op).
func (k reqKind) String() string {
	if int(k) < len(reqKindNames) {
		return reqKindNames[k]
	}
	return fmt.Sprintf("req(%d)", int(k))
}

// request is one Env call as the scheduler sees it. arg is the call's
// address (load, store), branch site, sequence number (begin, commit, abort,
// await) or queue ID (produce, consume, close); val is the value a store or
// produce writes, or a Compute's cycle count.
type request struct {
	kind reqKind
	// tag is the profiler bucket for reqCompute work; the zero value is
	// prof.Compute, so only overhead charges (ComputeValidation) set it.
	tag   prof.Bucket
	taken bool
	arg   uint64
	val   uint64
}

func (r request) seq() vid.Seq { return vid.Seq(r.arg) }
func (r request) q() int       { return int(r.arg) }

type response struct {
	val   uint64
	ok    bool
	abort bool
}

// fuseCap is how many Compute and Branch operations a core buffers before
// the next one yields like any other request.
const fuseCap = 4

// fusedKinds is the set of requests, as a bit mask over reqKind, that return
// nothing and so may be buffered: Compute (and ComputeValidation) and Branch.
const fusedKinds = 1<<reqCompute | 1<<reqBranch

// Env is a program's handle to its simulated core. The program runs as a
// coroutine of the scheduler (System.Run): each Env method is one request,
// which the scheduler handles in the global (clock, core ID) order. A request
// that could wait, or that another core's event must precede, yields to the
// scheduler and the program stays suspended until it is resumed with the
// response; a load, store, Compute, Branch or SpecAccessCount issued while
// the scheduler would pick this core next anyway is handled in place, with
// no switch. A Compute or Branch that cannot be handled in place returns at
// once: it joins the core's request queue, and the scheduler handles it at its
// turn, ahead of the request the program next yields (DESIGN.md §11.6). So the
// program may run ahead of other cores' earlier events, but never sees their
// effects early: every value it receives, and its clock (Now), reflect
// exactly the events before its own in the global order. All methods may
// only be called from inside the program.
//
// When the region aborts, the program unwinds via an internal panic that the
// engine recovers, raised by the Env call it is suspended at (the first one
// after a buffered operation that meets the abort); the program's Run call then
// reports the abort, and the caller re-executes from the last committed
// transaction. This is the software-visible analogue of jumping to the
// recovery code registered with initMTX (§3.1).
type Env struct {
	sys   *System
	c     *core
	yield func(request) bool // the coroutine's yield (iter.Pull)
}

// CoreID returns the simulated core this program runs on.
func (e *Env) CoreID() int { return e.c.id }

// Now returns the core's current cycle count. With operations buffered, it
// first waits for the scheduler to handle them.
func (e *Env) Now() int64 {
	e.sync()
	return e.c.time
}

// sync returns once the core has no buffered operations, so its clock is up
// to date.
func (e *Env) sync() {
	if e.c.nOps != 0 {
		e.rpc(request{kind: reqSync})
	}
}

// runAheadKinds is the set of requests that never park, as a bit mask over
// reqKind: the ones rpc may handle inline.
const runAheadKinds = 1<<reqLoad | 1<<reqStore | 1<<reqCompute | 1<<reqBranch | 1<<reqTxInfo

// rpc hands request r to the scheduler and returns its response. When the
// core is the one the scheduler is resuming (front), no wake scan is due, no
// operation is buffered and r cannot park, the scheduler's next pick is
// decided by one compare: the core's run key against limit. If the core would
// be picked again, rpc takes the scheduler's place, re-keying the core and
// handling r inline, so the program keeps running without a coroutine switch.
// Otherwise a Compute or Branch is appended to the core's queue while it
// holds fewer than fuseCap, and returns at once. Any other request is yielded:
// resume appends it to the queue, behind the buffered operations, and the
// program stays suspended until the scheduler has stepped the queue up to r
// and resumed it; rpc returns the response the scheduler left on the core. A
// false yield means Run stopped the coroutine mid-program; it unwinds like an
// abort.
func (e *Env) rpc(r request) response {
	s, c := e.sys, e.c
	if c == s.front && !s.wake && c.nOps == 0 && runAheadKinds>>r.kind&1 != 0 {
		if k := runKey(c); k < s.limit {
			s.runq[0] = k
			resp, _ := s.step(c, r)
			if resp.abort {
				panic(abortSignal{cause: s.abortCause})
			}
			return resp
		}
	}
	if fusedKinds>>r.kind&1 != 0 && c.nOps < fuseCap {
		c.ops[c.nOps] = r
		c.nOps++
		return response{}
	}
	if !e.yield(r) || c.resp.abort {
		panic(abortSignal{cause: s.abortCause})
	}
	return c.resp
}

// Load issues a load; inside a transaction it is speculative and validated
// by the HMTX system (maximal speculation validation: every load, §6.1).
func (e *Env) Load(addr memsys.Addr) uint64 {
	return e.rpc(request{kind: reqLoad, arg: addr}).val
}

// Store issues a store; inside a transaction it creates or updates the
// transaction's version of the line.
func (e *Env) Store(addr memsys.Addr, val uint64) {
	e.rpc(request{kind: reqStore, arg: addr, val: val})
}

// Compute charges n cycles of non-memory work (n instructions at IPC 1).
func (e *Env) Compute(n int64) {
	if n <= 0 {
		return
	}
	e.rpc(request{kind: reqCompute, val: uint64(n)})
}

// ComputeValidation charges n cycles like Compute, but attributes them to the
// profiler's validation bucket. The SMTX baseline uses it for the software
// costs HMTX moves into hardware — validation-record logging, forwarding, and
// commit-process replay (§2, §6) — so a profile diff against HMTX shows the
// overhead shift directly.
func (e *Env) ComputeValidation(n int64) {
	if n <= 0 {
		return
	}
	e.rpc(request{kind: reqCompute, val: uint64(n), tag: prof.Validation})
}

// Branch models a conditional branch at the given site. A misprediction
// pays the pipeline penalty and issues squashed wrong-path loads (§5.1).
func (e *Env) Branch(site uint64, taken bool) {
	e.rpc(request{kind: reqBranch, arg: site, taken: taken})
}

// Begin executes beginMTX: subsequent memory operations belong to
// transaction seq (0 returns to non-speculative execution without
// committing, §3.1). Entering a new VID epoch stalls until all earlier
// transactions commit, then performs the VID reset (§4.6).
func (e *Env) Begin(seq vid.Seq) {
	e.rpc(request{kind: reqBegin, arg: uint64(seq)})
}

// Commit executes commitMTX(seq): it blocks until seq-1 has committed
// (commits must be consecutive, §4.7), then atomically group-commits every
// speculative modification of the transaction across all caches.
func (e *Env) Commit(seq vid.Seq) {
	e.rpc(request{kind: reqCommit, arg: uint64(seq)})
}

// Abort executes abortMTX: it signals software-detected misspeculation
// (e.g. control-flow misspeculation, §3.2), rolling back every uncommitted
// transaction. It does not return: the program unwinds.
func (e *Env) Abort(seq vid.Seq) {
	e.rpc(request{kind: reqAbortTx, arg: uint64(seq)})
	// Unreachable: the rpc always reports the abort and unwinds.
}

// Produce appends val to queue q (e.g. produceVID in Figure 3); it stalls
// while the queue is full.
func (e *Env) Produce(q int, val uint64) {
	e.rpc(request{kind: reqProduce, arg: uint64(q), val: val})
}

// Consume pops the next value from queue q, stalling until one is available.
// ok is false once the queue is closed and drained.
func (e *Env) Consume(q int) (val uint64, ok bool) {
	r := e.rpc(request{kind: reqConsume, arg: uint64(q)})
	return r.val, r.ok
}

// CloseQueue marks queue q closed; drained consumers observe ok == false.
func (e *Env) CloseQueue(q int) {
	e.rpc(request{kind: reqClose, arg: uint64(q)})
}

// AwaitCommitted stalls until transaction seq has committed. The software
// runtime uses it to bound outstanding speculative state.
func (e *Env) AwaitCommitted(seq vid.Seq) {
	e.rpc(request{kind: reqAwait, arg: uint64(seq)})
}

// SpecAccessCount returns the number of speculative memory accesses the
// core's current transaction has performed so far. The SMTX baseline uses it
// to size the validation-record batches it ships to the commit process.
func (e *Env) SpecAccessCount() uint64 {
	return e.rpc(request{kind: reqTxInfo}).val
}
