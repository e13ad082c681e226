// Package instr is a minimal stand-in for hmtx/internal/instr: the analyzer
// matches the Hook type by name and package-path suffix and guards its Emit
// method, so the fixture only needs that and one accessor.
package instr

type Event struct{ Kind uint8 }

type Hook struct{ n int }

func (h *Hook) Enabled() bool { return h != nil }

func (h *Hook) Emit(e Event) {}

// Attached is a nil-safe accessor, not a decision point.
func (h *Hook) Attached() int { return 0 }
