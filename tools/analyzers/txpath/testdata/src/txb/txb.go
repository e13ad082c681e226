package txb

import "hmtx/internal/engine"

// Balanced: the canonical begin/commit iteration (doall style).
func balancedLoop(e *engine.Env, iters int) {
	for it := 0; it < iters; it++ {
		e.Begin(engine.Seq(it + 1))
		e.Store(0, 1)
		e.Commit(engine.Seq(it + 1))
	}
}

// Balanced: detach with Begin(0) instead of committing (stage-1 style).
func balancedDetach(e *engine.Env, iters int) {
	for it := 0; it < iters; it++ {
		e.Begin(engine.Seq(it + 1))
		e.Store(0, 1)
		e.Begin(0)
		e.Produce(1, uint64(it))
	}
	e.CloseQueue(1)
}

// Balanced: abort path closes too.
func balancedAbort(e *engine.Env, bad bool) {
	e.Begin(1)
	if bad {
		e.Abort(1)
		return
	}
	e.Commit(1)
}

// Balanced: a deferred Commit discharges the return obligation.
func balancedDefer(e *engine.Env) {
	defer e.Commit(1)
	e.Begin(1)
	e.Store(0, 1)
}

// Balanced: panic terminates the path, no obligation.
func balancedPanic(e *engine.Env) {
	e.Begin(1)
	if e.Load(0) == 0 {
		panic("bad state")
	}
	e.Commit(1)
}

// Unbalanced: no close before falling off the end.
func leakSimple(e *engine.Env) {
	e.Begin(1) // want `transaction opened here may reach function return with the epoch still open`
	e.Store(0, 1)
}

// Unbalanced: one branch returns with the transaction open.
func leakBranch(e *engine.Env, cond bool) {
	e.Begin(1) // want `transaction opened here may reach function return with the epoch still open`
	if cond {
		return
	}
	e.Commit(1)
}

// Unbalanced: only one branch closes; the fallthrough may still be open, and
// the Store after the branch may run with no epoch open.
func leakMaybe(e *engine.Env, cond bool) {
	e.Begin(2) // want `transaction opened here may reach function return with the epoch still open`
	if cond {
		e.Commit(2)
	}
	e.Store(0, 1) // want `tracked memory access outside an open transaction epoch`
}

// Unbalanced: the loop body exits an iteration with the transaction open.
func leakLoop(e *engine.Env, iters int) {
	for it := 0; it < iters; it++ {
		e.Begin(engine.Seq(it + 1)) // want `Begin while transaction \(unknown\) is still open on this path`
		e.Store(0, 1)
	}
}

// Unbalanced: Begin while the previous transaction may still be open.
func doubleBegin(e *engine.Env) {
	e.Begin(1)
	e.Begin(2) // want `Begin while transaction 1 is still open on this path`
	e.Commit(2)
}

// Escape: captured by a goroutine.
func escapeGo(e *engine.Env) {
	go func() {
		e.Begin(1) // want `captured by a goroutine`
		e.Commit(1)
	}()
}

// Escape: returned from the function.
func escapeReturn(e *engine.Env) *engine.Env {
	return e // want `handle returned`
}

// Escape: stored into a struct field.
type holder struct {
	env *engine.Env
}

func escapeField(h *holder, e *engine.Env) {
	h.env = e // want `stored outside the transaction scope`
}

// Escape: sent on a channel.
func escapeSend(ch chan *engine.Env, e *engine.Env) {
	ch <- e // want `sent on a channel`
}

// Escape: stored in a composite literal.
func escapeLit(e *engine.Env) holder {
	return holder{env: e} // want `stored in a composite literal`
}

// Not an escape: passing the handle down a synchronous call.
func helper(e *engine.Env) { e.Store(0, 1) }

func passDown(e *engine.Env) {
	e.Begin(1)
	helper(e)
	e.Commit(1)
}
