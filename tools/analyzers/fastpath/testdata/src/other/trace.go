// Package other is outside internal/memsys and internal/engine, so the gate
// does not apply: unguarded emits are fine off the simulated fast path.
package other

import "hmtx/internal/obs"

func DumpTrace(t *obs.Tracer) {
	t.Emit(obs.Event{Addr: 1})
}
