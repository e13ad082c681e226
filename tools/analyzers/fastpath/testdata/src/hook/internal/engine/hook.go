package engine

import (
	"hmtx/internal/instr"
	"hmtx/internal/prof"
)

type sys struct {
	ins  *instr.Hook
	prof *prof.Collector
}

// Guarded decision points are the contract: no diagnostics.
func (s *sys) guarded(now int64) {
	if s.ins.Enabled() {
		s.ins.OnTxBegin(now, 0, 1)
	}
	if ins := s.ins; ins.Enabled() && now > 0 {
		ins.OnTxBegin(now, 1, 2)
	}
	_ = s.ins.Attached() // accessors need no guard
}

func (s *sys) unguarded(now int64) {
	s.ins.OnTxBegin(now, 0, 1) // want `instr.Hook.OnTxBegin outside an Enabled\(\) guard`
	// A guard on another instrument does not cover a hook call.
	if s.prof.Enabled() {
		s.ins.OnTxBegin(now, 0, 1) // want `instr.Hook.OnTxBegin outside an Enabled\(\) guard`
	}
}
