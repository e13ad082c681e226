// Package instr stands in for the hook's own package, which the existing
// rows police too: the hook fans out to each instrument behind its guard.
package instr

import (
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

type hook struct {
	tracer *obs.Tracer
	prof   *prof.Collector
	series *metrics.Sampler
}

func (h *hook) fanOut(now int64) {
	if h.tracer.Enabled(obs.CatTxn) {
		h.tracer.Emit(obs.Event{})
	}
	h.tracer.Emit(obs.Event{})             // want `obs.Tracer.Emit outside an Enabled\(\) guard`
	h.prof.Charge(0, 1, prof.Compute, now) // want `prof.Collector.Charge outside an Enabled\(\) guard`
	h.series.Tick(now)                     // want `metrics.Sampler.Tick outside an Enabled\(\) guard`
}
