package memsys

import "hmtx/internal/instr"

type hier struct {
	ins *instr.Hook
}

func (h *hier) load() {
	if h.ins.Enabled() {
		h.ins.Emit(instr.Event{Kind: 1})
	}
	h.ins.Emit(instr.Event{Kind: 1}) // want `instr.Hook.Emit outside an Enabled\(\) guard`
}
