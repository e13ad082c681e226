// Package instr is a minimal stand-in for hmtx/internal/instr: the analyzer
// matches the Hook type by name and package-path suffix and guards its On*
// methods, so the fixture only needs a few of each kind.
package instr

type Hook struct{ n int }

func (h *Hook) Enabled() bool { return h != nil }

func (h *Hook) OnTxBegin(cycle int64, core int, seq uint64) {}

func (h *Hook) OnMemOp(store bool, lat int64) {}

// Attached and the other non-On methods are nil-safe accessors, not
// decision points.
func (h *Hook) Attached() int { return 0 }
