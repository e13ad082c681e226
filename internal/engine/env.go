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
	// is never stepped (System.stepFused).
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

type request struct {
	kind  reqKind
	addr  memsys.Addr
	val   uint64
	seq   vid.Seq
	q     int
	site  uint64
	taken bool
	// tag is the profiler bucket for reqCompute work; the zero value is
	// prof.Compute, so only overhead charges (ComputeValidation) set it.
	tag prof.Bucket
}

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

// fusedOp is one buffered operation in a compact form: a Compute's cycle
// count or a Branch's site, with the Compute's profiler tag or the Branch's
// outcome.
type fusedOp struct {
	arg   uint64
	kind  reqKind
	tag   prof.Bucket
	taken bool
}

// fuse appends the Compute or Branch r to core c's buffer.
func (c *core) fuse(r request) {
	op := fusedOp{arg: r.val, kind: r.kind, tag: r.tag}
	if r.kind == reqBranch {
		op.arg, op.taken = r.site, r.taken
	}
	c.fused[c.nFused] = op
	c.nFused++
}

// request is the buffered operation as the request it stands for.
func (op fusedOp) request() request {
	if op.kind == reqBranch {
		return request{kind: reqBranch, site: op.arg, taken: op.taken}
	}
	return request{kind: reqCompute, val: op.arg, tag: op.tag}
}

// Env is a program's handle to its simulated core. The program runs as a
// coroutine of the scheduler (System.Run): each Env method is one request,
// which the scheduler handles in the global (clock, core ID) order. A request
// that could wait, or that another core's event must precede, yields to the
// scheduler and the program stays suspended until it is resumed with the
// response; a load, store, Compute, Branch or SpecAccessCount issued while
// the scheduler would pick this core next anyway is handled in place, with
// no switch. A Compute or Branch that cannot be handled in place returns at
// once: it is buffered on the core, and the scheduler handles it at its turn,
// before the program's next request that does yield (DESIGN.md §11.6). So the
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
	if e.c.nFused != 0 {
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
// Otherwise a Compute or Branch is buffered while there is room, and returns
// at once. Any other request suspends the program until the scheduler has
// handled the buffered operations and r and resumes it, and rpc returns the
// response the scheduler left on the core. A false yield means Run stopped
// the coroutine mid-program; it unwinds like an abort.
func (e *Env) rpc(r request) response {
	s, c := e.sys, e.c
	if c == s.front && !s.wake && c.nFused == 0 && runAheadKinds>>r.kind&1 != 0 {
		if k := runKey(c); k < s.limit {
			s.runq[0] = k
			resp, _ := s.step(c, r)
			if resp.abort {
				panic(abortSignal{cause: s.abortCause})
			}
			return resp
		}
	}
	if fusedKinds>>r.kind&1 != 0 && c.nFused < fuseCap {
		c.fuse(r)
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
	return e.rpc(request{kind: reqLoad, addr: addr}).val
}

// Store issues a store; inside a transaction it creates or updates the
// transaction's version of the line.
func (e *Env) Store(addr memsys.Addr, val uint64) {
	e.rpc(request{kind: reqStore, addr: addr, val: val})
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
	e.rpc(request{kind: reqBranch, site: site, taken: taken})
}

// Begin executes beginMTX: subsequent memory operations belong to
// transaction seq (0 returns to non-speculative execution without
// committing, §3.1). Entering a new VID epoch stalls until all earlier
// transactions commit, then performs the VID reset (§4.6).
func (e *Env) Begin(seq vid.Seq) {
	e.rpc(request{kind: reqBegin, seq: seq})
}

// Commit executes commitMTX(seq): it blocks until seq-1 has committed
// (commits must be consecutive, §4.7), then atomically group-commits every
// speculative modification of the transaction across all caches.
func (e *Env) Commit(seq vid.Seq) {
	e.rpc(request{kind: reqCommit, seq: seq})
}

// Abort executes abortMTX: it signals software-detected misspeculation
// (e.g. control-flow misspeculation, §3.2), rolling back every uncommitted
// transaction. It does not return: the program unwinds.
func (e *Env) Abort(seq vid.Seq) {
	e.rpc(request{kind: reqAbortTx, seq: seq})
	// Unreachable: the rpc always reports the abort and unwinds.
}

// Produce appends val to queue q (e.g. produceVID in Figure 3); it stalls
// while the queue is full.
func (e *Env) Produce(q int, val uint64) {
	e.rpc(request{kind: reqProduce, q: q, val: val})
}

// Consume pops the next value from queue q, stalling until one is available.
// ok is false once the queue is closed and drained.
func (e *Env) Consume(q int) (val uint64, ok bool) {
	r := e.rpc(request{kind: reqConsume, q: q})
	return r.val, r.ok
}

// CloseQueue marks queue q closed; drained consumers observe ok == false.
func (e *Env) CloseQueue(q int) {
	e.rpc(request{kind: reqClose, q: q})
}

// AwaitCommitted stalls until transaction seq has committed. The software
// runtime uses it to bound outstanding speculative state.
func (e *Env) AwaitCommitted(seq vid.Seq) {
	e.rpc(request{kind: reqAwait, seq: seq})
}

// SpecAccessCount returns the number of speculative memory accesses the
// core's current transaction has performed so far. The SMTX baseline uses it
// to size the validation-record batches it ships to the commit process.
func (e *Env) SpecAccessCount() uint64 {
	return e.rpc(request{kind: reqTxInfo}).val
}
