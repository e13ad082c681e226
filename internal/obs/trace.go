package obs

// DefaultRingCap is the default capacity of a Tracer's ring buffer.
const DefaultRingCap = 1 << 16

// A Sink receives every enabled event in emission order. Close flushes any
// buffered output; after Close no further Emit calls arrive.
type Sink interface {
	Emit(Event)
	Close() error
}

// Tracer is the event-trace instrument: it folds the simulation's Event
// stream, recording the events of its enabled categories. The zero value of
// *Tracer (nil) is a valid disabled tracer that records nothing.
//
// The most recent events are retained in a ring buffer for post-mortem
// inspection (Events); attached sinks stream every event as it is recorded.
// The Tracer is not safe for concurrent use; the engine's serialised
// scheduler guarantees at most one emitter at a time.
type Tracer struct {
	mask  Category
	now   int64
	ring  []Event
	n     uint64 // total events recorded
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

// Mask returns the enabled category set (0 on a nil tracer).
func (t *Tracer) Mask() Category {
	if t == nil {
		return 0
	}
	return t.mask
}

// Attach adds a sink; every subsequent recorded event is forwarded to it.
func (t *Tracer) Attach(s Sink) { t.sinks = append(t.sinks, s) }

// Fold records e if its category is enabled; safe on a nil tracer. A KStep
// sets the time stamped on memory-system events, which have no clock of
// their own; so does every recorded engine event, which carries its own
// Cycle. A KStateChange's "from->to" Note is built here, only for an event
// the tracer records.
func (t *Tracer) Fold(e Event) {
	switch {
	case t == nil:
	case e.Kind == KStep:
		t.now = e.Cycle
	case t.mask&e.Kind.Category() != 0:
		if !kindInfo[e.Kind].mem {
			t.now = e.Cycle
		}
		if e.Kind == KStateChange {
			e.Note = StateName(uint64(e.Sub)) + "->" + StateName(e.Aux)
		}
		t.emit(e)
	}
}

// emit records e at the tracer's current time, if its category is enabled.
func (t *Tracer) emit(e Event) {
	if t.mask&e.Kind.Category() == 0 {
		return
	}
	e.Cycle = t.now
	t.ring[t.n%uint64(len(t.ring))] = e
	t.n++
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Count returns the total number of events recorded (including any that have
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
