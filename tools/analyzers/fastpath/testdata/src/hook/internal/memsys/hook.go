package memsys

import "hmtx/internal/instr"

type hier struct {
	ins *instr.Hook
}

func (h *hier) load(lat int64) {
	if h.ins.Enabled() {
		h.ins.OnMemOp(false, lat)
	}
	h.ins.OnMemOp(false, lat) // want `instr.Hook.OnMemOp outside an Enabled\(\) guard`
}
