package engine

import "hmtx/internal/instr"

type sys struct {
	ins   *instr.Hook
	debug *debugger
}

// Guarded decision points are the contract: no diagnostics.
func (s *sys) guarded(now int64) {
	if s.ins.Enabled() {
		s.ins.Emit(instr.Event{Kind: 1})
	}
	if ins := s.ins; ins.Enabled() && now > 0 {
		// Nested inside the guard body still counts.
		if now > 16 {
			ins.Emit(instr.Event{Kind: 2})
		}
	}
	_ = s.ins.Attached() // accessors need no guard
}

func (s *sys) unguarded(now int64) {
	s.ins.Emit(instr.Event{Kind: 1}) // want `instr.Hook.Emit outside an Enabled\(\) guard`
	if now != 0 {
		// An if statement that never consults Enabled is not a guard.
		s.ins.Emit(instr.Event{Kind: 1}) // want `instr.Hook.Emit outside an Enabled\(\) guard`
	}
	// Another type's Enabled does not cover a hook call.
	if s.debug.Enabled() {
		s.ins.Emit(instr.Event{Kind: 1}) // want `instr.Hook.Emit outside an Enabled\(\) guard`
	}
	if s.ins.Enabled() {
		_ = now
	}
	// After a guard body ends the gate is closed again.
	s.ins.Emit(instr.Event{Kind: 1}) // want `instr.Hook.Emit outside an Enabled\(\) guard`
}

// Methods named Emit on other types are not hook emits.
type debugger struct{}

func (d *debugger) Enabled() bool { return d != nil }

func (d *debugger) Emit(e instr.Event) {}

func use(d *debugger) { d.Emit(instr.Event{}) }
