// Package obs is the observability layer of the simulator: a deterministic
// event trace and a hierarchical statistics registry, modelled on gem5's
// --debug-flags tracing and hierarchical stats dump.
//
// The two halves are independent:
//
//   - The Tracer (trace.go) receives typed Events from the engine, the memory
//     system and the software runtimes, keeps the most recent ones in a ring
//     buffer, and forwards every enabled event to attached Sinks: a
//     gem5-style text log (sink_text.go), Chrome trace_event JSON for
//     timeline viewers (sink_chrome.go), and the per-transaction timeline
//     collector (txtimeline.go).
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
// Performance contract: with tracing disabled (nil Tracer) every emit site
// must be behind an Enabled/nil guard so the hot path pays one predictable
// branch and zero allocations. The emit sites live in the instrument hook
// (internal/instr), where the fastpath analyzer (tools/analyzers/fastpath)
// enforces the guard.
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
	// (Arg: run ordinal / final cycle count; Note on KRunEnd: abort cause).
	KRunStart
	KRunEnd

	kindLimit
)

// kindInfo maps a Kind to its name and category.
var kindInfo = [kindLimit]struct {
	name string
	cat  Category
}{
	KNone:          {"none", 0},
	KBusRequest:    {"bus_request", CatBus},
	KStateChange:   {"state_change", CatCache},
	KVersionCreate: {"version_create", CatVersion},
	KSOWriteback:   {"so_writeback", CatVersion},
	KOverflowAbort: {"overflow_abort", CatOverflow},
	KWrongPath:     {"wrong_path", CatSLA},
	KSLASent:       {"sla_sent", CatSLA},
	KSLAAvoided:    {"sla_avoided", CatSLA},
	KTxBegin:       {"tx_begin", CatTxn},
	KTxCommit:      {"tx_commit", CatTxn},
	KTxAbort:       {"tx_abort", CatTxn},
	KVIDReset:      {"vid_reset", CatTxn},
	KCommit:        {"commit", CatCommit},
	KAbortSweep:    {"abort_sweep", CatCommit},
	KCommitStall:   {"commit_stall", CatCommit},
	KCommitResume:  {"commit_resume", CatCommit},
	KQueueProduce:  {"queue_produce", CatQueue},
	KQueueConsume:  {"queue_consume", CatQueue},
	KQueueClose:    {"queue_close", CatQueue},
	KSpanBegin:     {"span_begin", CatEngine},
	KSpanEnd:       {"span_end", CatEngine},
	KRunStart:      {"run_start", CatEngine},
	KRunEnd:        {"run_end", CatEngine},
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

// Event is one trace record. Only simulated quantities appear: Cycle is the
// issuing core's clock (stamped by the Tracer), Core the simulated core
// (-1 when no single core is responsible), Addr a simulated physical
// address, VID a transaction identifier. Arg and Note carry kind-specific
// detail; Note is only populated under an enabled-category guard, so the
// disabled path never allocates.
type Event struct {
	Cycle int64
	Kind  Kind
	Core  int32
	VID   uint64
	Addr  uint64
	Arg   uint64
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
