// Package obs is the observability layer of the simulator: the typed Event
// record of every decision point, a deterministic event trace over it, and a
// hierarchical statistics registry, modelled on gem5's --debug-flags tracing
// and hierarchical stats dump.
//
//   - Event (this file) is the one record the engine and the memory system
//     hand to the instrument hook (internal/instr) at each decision point.
//     Every instrument is a fold over the Event stream with one recording
//     method, Fold. Traced kinds belong to a Category; the kinds only the
//     profiler and the metric instruments read have category 0.
//
//   - The Tracer (trace.go) is the trace's fold: it keeps the most recent
//     events of its enabled categories in a ring buffer and forwards each
//     to attached Sinks: a gem5-style text log (sink_text.go), Chrome
//     trace_event JSON for timeline viewers (sink_chrome.go), and the
//     per-transaction timeline collector (txtimeline.go).
//
//   - The Registry (registry.go) holds named counters, scalar formulas and
//     fixed-bucket histograms registered per component
//     (memsys.l1[0].hits, engine.aborts.conflict, ...), and dumps a snapshot
//     as an aligned text table or deterministic JSON.
//
// Determinism contract (DESIGN.md §10): events carry only simulated state —
// cycles, cores, addresses, VIDs — never host time or host addresses, and
// every dump format iterates sorted keys, so two runs of the same Config
// produce byte-identical traces and stats documents.
//
// Performance contract: with no instrument attached every emit site pays one
// predictable branch and zero allocations. The sites sit behind the hook's
// Enabled guard, which the fastpath analyzer (tools/analyzers/fastpath)
// enforces, and build no Note string: the Tracer builds a KStateChange's
// note itself, only for an event it records.
package obs

import (
	"fmt"
	"strings"
)

// Category classifies trace events for filtering (the -trace-cats flag, in
// the mould of gem5's --debug-flags).
type Category uint32

const (
	// CatBus: broadcast requests on the L1-L2 snoopy bus.
	CatBus Category = 1 << iota
	// CatCache: cache-line protocol state transitions.
	CatCache
	// CatVersion: speculative version lifecycle (creation, S-O writeback).
	CatVersion
	// CatOverflow: speculative lines leaving the last-level cache (§5.4).
	CatOverflow
	// CatSLA: speculative load acknowledgments and wrong-path loads (§5.1).
	CatSLA
	// CatTxn: transaction lifecycle (begin, commit, abort, VID reset).
	CatTxn
	// CatCommit: commit machinery (LC advance, in-order commit stalls,
	// sweeps, SMTX validation spans).
	CatCommit
	// CatQueue: inter-stage produce/consume queue traffic.
	CatQueue
	// CatEngine: engine-level region events (runs, recoveries, spans).
	CatEngine

	catLimit
)

// CatAll enables every category.
const CatAll = catLimit - 1

// catNames is ordered by bit position.
var catNames = []string{
	"bus", "cache", "version", "overflow", "sla", "txn", "commit", "queue", "engine",
}

// String names the category set, e.g. "bus" or "bus+txn".
func (c Category) String() string {
	if c == CatAll {
		return "all"
	}
	var parts []string
	for i, n := range catNames {
		if c&(1<<i) != 0 {
			parts = append(parts, n)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseCategories parses a comma-separated category list ("bus,txn"); "all"
// or the empty string selects every category.
func ParseCategories(s string) (Category, error) {
	if s == "" || s == "all" {
		return CatAll, nil
	}
	var c Category
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for i, n := range catNames {
			if part == n {
				c |= 1 << i
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace category %q (have %s, or \"all\")",
				part, strings.Join(catNames, ", "))
		}
	}
	return c, nil
}

// Kind identifies what happened; every Kind belongs to exactly one Category.
type Kind uint8

const (
	KNone Kind = iota

	// KBusRequest: a core broadcast a request on the snoopy bus
	// (Note: "load" or "store").
	KBusRequest
	// KStateChange: a cache line changed protocol state (Note: transition).
	KStateChange
	// KVersionCreate: a store created a new speculative version (§4.1).
	KVersionCreate
	// KSOWriteback: a non-speculative S-O line legally overflowed to
	// memory (§5.4).
	KSOWriteback
	// KOverflowAbort: a speculative line left the last-level cache,
	// forcing an abort (§5.4).
	KOverflowAbort
	// KWrongPath: a squashed branch-speculative load executed (§5.1).
	KWrongPath
	// KSLASent: a speculative load required an acknowledgment (§5.1).
	KSLASent
	// KSLAAvoided: an SLA avoided a false misspeculation (Table 1).
	KSLAAvoided
	// KTxBegin: beginMTX entered transaction VID.
	KTxBegin
	// KTxCommit: commitMTX committed transaction VID (Arg: commit
	// latency in cycles since beginMTX).
	KTxCommit
	// KTxAbort: the region aborted (Note: cause).
	KTxAbort
	// KVIDReset: the VID space was reset, starting a new epoch (§4.6).
	KVIDReset
	// KCommit: the memory system advanced the LC VID register (§5.3);
	// Arg is the frames swept under eager commit, 0 under lazy.
	KCommit
	// KAbortSweep: the memory system flushed all speculative state (§4.4).
	KAbortSweep
	// KCommitStall: a core parked waiting for the in-order commit of VID.
	KCommitStall
	// KCommitResume: a parked committer resumed (Arg: stall cycles).
	KCommitResume
	// KQueueProduce: a value entered inter-stage queue Arg.
	KQueueProduce
	// KQueueConsume: a value left inter-stage queue Arg.
	KQueueConsume
	// KQueueClose: inter-stage queue Arg was closed.
	KQueueClose
	// KSpanBegin and KSpanEnd bracket a named span of work (Note: name),
	// e.g. the SMTX commit process validating one transaction.
	KSpanBegin
	KSpanEnd
	// KRunStart and KRunEnd bracket one engine region execution
	// (Arg: run ordinal / final cycle count; Note on KRunEnd: abort cause;
	// Aux on KRunEnd: the last committed sequence number).
	KRunStart
	KRunEnd

	// The kinds below have category 0: no trace mask selects them. They
	// feed the profiler and the metric instruments (DESIGN.md §10.1).

	// KStep: the engine is about to run a scheduler event on a core whose
	// clock reads Cycle (Arg: the global cycle, completed runs included).
	KStep
	// KCharge: Arg cycles of core Core went to prof bucket Sub on behalf
	// of transaction VID.
	KCharge
	// KAccess: a load or store of line Addr by core Core for transaction
	// VID waited Aux cycles for the bus and took Arg cycles in bucket Sub.
	KAccess
	// KCoreDone: core Core finished its program at cycle Arg.
	KCoreDone
	// KCommitArb: commitMTX of VID got its turn after Arg stall cycles
	// without parking (a parked committer emits KCommitResume instead).
	KCommitArb
	// KTxFootprint: the transaction committing next read Arg and wrote Aux
	// bytes.
	KTxFootprint
	// KExplicitAbort: transaction VID ran abortMTX.
	KExplicitAbort
	// KMemOp: a load (Sub 0) or store (Sub 1) took Arg cycles.
	KMemOp
	// KPeer: a peer L1 served line Addr over the bus.
	KPeer
	// KConflict: transaction Aux (0 if unknown) rolls back transaction
	// VID over line Addr; Sub is the metrics.EdgeKind.
	KConflict

	kindLimit
)

// KindSet is a set of kinds: a fold's inlined test for the kinds it reads,
// so the hook's call to it costs a few instructions for every other kind.
type KindSet uint64

// KindsOf returns the set of ks.
func KindsOf(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in s.
func (s KindSet) Has(k Kind) bool { return s>>k&1 != 0 }

// kindInfo maps a Kind to its name and category. A mem kind comes from the
// memory system, which has no clock: its Cycle is stamped by the Tracer.
var kindInfo = [kindLimit]struct {
	name string
	cat  Category
	mem  bool
}{
	KNone:          {"none", 0, false},
	KBusRequest:    {"bus_request", CatBus, true},
	KStateChange:   {"state_change", CatCache, true},
	KVersionCreate: {"version_create", CatVersion, true},
	KSOWriteback:   {"so_writeback", CatVersion, true},
	KOverflowAbort: {"overflow_abort", CatOverflow, true},
	KWrongPath:     {"wrong_path", CatSLA, true},
	KSLASent:       {"sla_sent", CatSLA, true},
	KSLAAvoided:    {"sla_avoided", CatSLA, true},
	KTxBegin:       {"tx_begin", CatTxn, false},
	KTxCommit:      {"tx_commit", CatTxn, false},
	KTxAbort:       {"tx_abort", CatTxn, false},
	KVIDReset:      {"vid_reset", CatTxn, true},
	KCommit:        {"commit", CatCommit, true},
	KAbortSweep:    {"abort_sweep", CatCommit, true},
	KCommitStall:   {"commit_stall", CatCommit, false},
	KCommitResume:  {"commit_resume", CatCommit, false},
	KQueueProduce:  {"queue_produce", CatQueue, false},
	KQueueConsume:  {"queue_consume", CatQueue, false},
	KQueueClose:    {"queue_close", CatQueue, false},
	KSpanBegin:     {"span_begin", CatEngine, false},
	KSpanEnd:       {"span_end", CatEngine, false},
	KRunStart:      {"run_start", CatEngine, false},
	KRunEnd:        {"run_end", CatEngine, false},
	KStep:          {"step", 0, false},
	KCharge:        {"charge", 0, false},
	KAccess:        {"access", 0, false},
	KCoreDone:      {"core_done", 0, false},
	KCommitArb:     {"commit_arb", 0, false},
	KTxFootprint:   {"tx_footprint", 0, false},
	KExplicitAbort: {"explicit_abort", 0, false},
	KMemOp:         {"mem_op", 0, true},
	KPeer:          {"peer", 0, true},
	KConflict:      {"conflict", 0, true},
}

// stateNames name the cache-line protocol states (memsys.State), which a
// KStateChange event carries as Sub (from) and Aux (to).
var stateNames = [...]string{"I", "M", "O", "E", "S", "S-M", "S-O", "S-E", "S-S"}

// StateName names protocol state s.
func StateName(s uint64) string {
	if s < uint64(len(stateNames)) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", s)
}

// String returns the kind's snake_case name (stable; part of the trace
// format).
func (k Kind) String() string {
	if k >= kindLimit {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindInfo[k].name
}

// Category returns the category the kind belongs to.
func (k Kind) Category() Category {
	if k >= kindLimit {
		return 0
	}
	return kindInfo[k].cat
}

// Event is one decision point of the simulation, the record every
// instrument folds. Only simulated quantities appear: Cycle is the issuing
// core's clock (stamped by the Tracer for a memory-system kind), Core the
// simulated core (-1 when no single core is responsible), Addr a simulated
// physical address, VID a transaction identifier. Arg, Sub, Aux and Note
// carry kind-specific detail; an emit site never builds a Note, so an event
// costs no allocation. The trace formats show every field but Sub and Aux.
type Event struct {
	Cycle int64
	Kind  Kind
	Sub   uint8
	Core  int32
	VID   uint64
	Addr  uint64
	Arg   uint64
	Aux   uint64
	Note  string
}

// Describe renders the event payload for the text log; the cycle and
// category are the sink's columns.
func (e Event) Describe() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.Core >= 0 {
		fmt.Fprintf(&b, " core%d", e.Core)
	}
	if e.Addr != 0 {
		fmt.Fprintf(&b, " line=%#x", e.Addr)
	}
	if e.VID != 0 {
		fmt.Fprintf(&b, " vid=%d", e.VID)
	}
	if e.Arg != 0 {
		fmt.Fprintf(&b, " arg=%d", e.Arg)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " %q", e.Note)
	}
	return b.String()
}

// AbortClass buckets an abort cause string into a stable attribution class:
// "conflict" (cross-transaction dependence violation, §4.3), "overflow"
// (speculative line left the LLC, §5.4), "sla-mismatch" (SLA replay value
// check failed, §5.1), "explicit" (software abortMTX, e.g. an early-exit
// squash), or "other".
func AbortClass(cause string) string {
	switch {
	case strings.HasPrefix(cause, "store vid "):
		return "conflict"
	case strings.Contains(cause, "overflowed the last-level cache"):
		return "overflow"
	case strings.HasPrefix(cause, "SLA mismatch"):
		return "sla-mismatch"
	case strings.HasPrefix(cause, "explicit abortMTX"):
		return "explicit"
	default:
		return "other"
	}
}

// AbortClasses lists every AbortClass value in display order.
func AbortClasses() []string {
	return []string{"conflict", "overflow", "sla-mismatch", "explicit", "other"}
}
