// Package metrics is a minimal stand-in for hmtx/internal/metrics: the
// analyzer matches the instrument types by name and package-path suffix, so
// the fixture only needs the instruments and the methods the gates care
// about.
package metrics

type EdgeKind uint8

const EdgeConflict EdgeKind = 0

type Sampler struct{ rows int }

func (s *Sampler) Enabled() bool { return s != nil }

func (s *Sampler) Tick(now int64) {}

func (s *Sampler) Flush(now int64) {}

func (s *Sampler) Probe(name string, fn func() uint64) {}

type Recorder struct{ n int }

func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) SetTime(cycle int64) {}

func (r *Recorder) Record(aborter, victim, addr uint64, kind EdgeKind) {}

type Hist struct{ total uint64 }

func (h *Hist) Observe(v uint64) {}

type LatHists struct {
	Open       *Hist
	Validation *Hist
	CommitArb  *Hist
}

func (l *LatHists) Enabled() bool { return l != nil }
