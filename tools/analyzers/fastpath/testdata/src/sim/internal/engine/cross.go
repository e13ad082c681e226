package engine

import (
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

type xsys struct {
	tracer *obs.Tracer
	prof   *prof.Collector
	series *metrics.Sampler
}

// Each instrument kind needs its own guard: Enabled on one kind does not
// open the gate for another.
func (s *xsys) crossGuarded(now int64) {
	if s.prof.Enabled() {
		s.tracer.Emit(obs.Event{}) // want `obs.Tracer.Emit outside an Enabled\(\) guard`
		s.series.Tick(now)         // want `metrics.Sampler.Tick outside an Enabled\(\) guard`
	}
	if s.tracer.Enabled(obs.CatBus) || s.series.Enabled() {
		s.prof.Charge(0, 1, prof.Compute, now) // want `prof.Collector.Charge outside an Enabled\(\) guard`
		s.tracer.Emit(obs.Event{})
		s.series.Tick(now)
	}
}
