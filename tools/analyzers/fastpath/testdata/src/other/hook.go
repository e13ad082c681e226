// Package other is outside internal/memsys and internal/engine, so the gate
// does not apply: an unguarded emit is fine off the simulated fast path.
package other

import "hmtx/internal/instr"

func Dump(h *instr.Hook) {
	h.Emit(instr.Event{Kind: 1})
}
