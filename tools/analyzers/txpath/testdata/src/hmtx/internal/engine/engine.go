// Package engine is a fixture stand-in for hmtx/internal/engine: just enough
// of the Env surface for txpath to classify calls.
package engine

// Env mimics the per-thread simulated environment handle.
type Env struct{}

// Seq mimics vid.Seq.
type Seq int64

func (e *Env) Begin(seq Seq)                 {}
func (e *Env) Commit(seq Seq)                {}
func (e *Env) Abort(seq Seq)                 {}
func (e *Env) Load(addr uint64) uint64       { return 0 }
func (e *Env) Store(addr uint64, val uint64) {}
func (e *Env) Produce(q int, val uint64)     {}
func (e *Env) Consume(q int) (uint64, bool)  { return 0, false }
func (e *Env) CloseQueue(q int)              {}

// Program mimics engine.Program.
type Program func(*Env)
