package memsys

import "reflect"

// Stats aggregates memory-system event counts for one simulation.
type Stats struct {
	// Hit/miss accounting.
	L1Hits        uint64 // requests served by the local L1
	PeerTransfers uint64 // requests served by a peer L1 over the bus
	L2Hits        uint64 // requests served by the shared L2
	MemReads      uint64 // line fills from main memory
	MemWrites     uint64 // line writebacks to main memory
	BusMessages   uint64 // broadcast requests on the L1-L2 bus

	// Speculative accesses (§4.2).
	SpecLoads       uint64 // speculative loads executed (correct path)
	SpecStores      uint64 // speculative stores executed
	WrongPathLoads  uint64 // squashed branch-speculative loads (§5.1)
	VersionsCreated uint64 // new speculative line versions created

	// SLA accounting (§5.1, Table 1).
	SLAsSent      uint64 // loads that required a speculative load acknowledgment
	AvoidedAborts uint64 // false misspeculations avoided thanks to SLAs

	// Overflow handling (§5.4).
	SOWritebacks   uint64 // non-speculative S-O lines legally overflowed to memory
	OverflowAborts uint64 // aborts forced by speculative lines leaving the LLC
	ForcedEvicts   uint64 // evictions injected by Hierarchy.Evict (model checker)

	// Transaction lifecycle.
	Commits   uint64
	Aborts    uint64
	VIDResets uint64 // §4.6
}

// Add accumulates other into s field by field, so multi-run aggregation
// (experiments, sharded runs) does not open-code the sums. Every Stats field
// must be a uint64; Add checks this at run time via reflection so a future
// field of another type fails loudly instead of being silently skipped.
func (s *Stats) Add(other *Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(other).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Uint64 {
			panic("memsys: Stats." + sv.Type().Field(i).Name + " is not a uint64; update Stats.Add")
		}
		f.SetUint(f.Uint() + ov.Field(i).Uint())
	}
}

// Tracker receives callbacks about per-transaction speculative activity. The
// engine uses it to maintain read/write sets (Figure 9) and per-transaction
// statistics (Table 1). A nil Tracker disables tracking.
type Tracker interface {
	// SpecTouch records that the transaction currently running on core
	// speculatively accessed lineAddr (isStore selects the write set) and
	// reports whether that transaction had already logged an access to
	// the line — in which case no SLA needs to be sent (§5.1).
	SpecTouch(core int, lineAddr Addr, isStore bool) (already bool)
	// AvoidedAbort records that, without SLAs, a wrong-path mark would
	// have caused a false misspeculation on this store (Table 1).
	AvoidedAbort(core int)
}
