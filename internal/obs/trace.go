package obs

// DefaultRingCap is the default capacity of a Tracer's ring buffer.
const DefaultRingCap = 1 << 16

// A Sink receives every enabled event in emission order. Close flushes any
// buffered output; after Close no further Emit calls arrive.
type Sink interface {
	Emit(Event)
	Close() error
}

// Tracer collects simulation events. The zero value of *Tracer (nil) is a
// valid disabled tracer: Enabled reports false and Emit is a no-op, so
// emit sites can be guarded with a single `if tracer.Enabled(cat)` check.
//
// The most recent events are retained in a ring buffer for post-mortem
// inspection (Events); attached sinks stream every event as it is emitted.
// The Tracer is not safe for concurrent use; the engine's serialised
// scheduler guarantees at most one emitter at a time.
type Tracer struct {
	mask  Category
	now   int64
	ring  []Event
	n     uint64 // total events emitted
	sinks []Sink
}

// NewTracer builds a tracer recording the given categories, keeping the last
// ringCap events (DefaultRingCap if ringCap <= 0).
func NewTracer(mask Category, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{mask: mask, ring: make([]Event, ringCap)}
}

// Enabled reports whether events of category c are recorded. It is the
// emit-site guard: safe (and false) on a nil tracer.
func (t *Tracer) Enabled(c Category) bool {
	return t != nil && t.mask&c != 0
}

// Mask returns the enabled category set (0 on a nil tracer).
func (t *Tracer) Mask() Category {
	if t == nil {
		return 0
	}
	return t.mask
}

// Attach adds a sink; every subsequent enabled event is forwarded to it.
func (t *Tracer) Attach(s Sink) { t.sinks = append(t.sinks, s) }

// SetTime sets the simulated cycle stamped on subsequent events. The engine
// calls it with the issuing core's clock before dispatching each request, so
// memory-system emits deep in a protocol transaction carry the right time.
// Safe on a nil tracer.
func (t *Tracer) SetTime(cycle int64) {
	if t == nil {
		return
	}
	t.now = cycle
}

// Emit records e, stamping e.Cycle from the last SetTime. Events of disabled
// categories are dropped. Safe on a nil tracer, but emit sites in the
// simulation packages must still guard with Enabled so the disabled path
// never constructs the Event (enforced by the fastpath analyzer).
func (t *Tracer) Emit(e Event) {
	if t == nil || t.mask&e.Kind.Category() == 0 {
		return
	}
	e.Cycle = t.now
	t.ring[t.n%uint64(len(t.ring))] = e
	t.n++
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// EmitAt is SetTime(cycle) followed by Emit(e).
func (t *Tracer) EmitAt(cycle int64, e Event) {
	t.SetTime(cycle)
	t.Emit(e)
}

// Count returns the total number of events emitted (including any that have
// rotated out of the ring).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	cap := uint64(len(t.ring))
	if t.n <= cap {
		out := make([]Event, t.n)
		copy(out, t.ring[:t.n])
		return out
	}
	out := make([]Event, cap)
	start := t.n % cap
	copy(out, t.ring[start:])
	copy(out[cap-start:], t.ring[:start])
	return out
}

// Close closes every attached sink in attachment order, returning the first
// error. Safe on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
