package instr_test

import (
	"reflect"
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/obs"
	"hmtx/internal/smtx"
	"hmtx/internal/workloads"
)

// recorder is a trace sink keeping every event it is sent.
type recorder struct{ evs []obs.Event }

func (r *recorder) Emit(e obs.Event) { r.evs = append(r.evs, e) }
func (r *recorder) Close() error     { return nil }

// traceRun runs bench under system ("hmtx" or "smtx-max") on 4 cores with a
// tracer recording mask and returns every event it recorded.
func traceRun(t *testing.T, bench, system string, noSLA bool, mask obs.Category) []obs.Event {
	t.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Mem.SLAEnabled = !noSLA
	sys := engine.New(cfg)
	rec := &recorder{}
	tr := obs.NewTracer(mask, 0)
	tr.Attach(rec)
	sys.SetTracer(tr)
	loop := spec.New(1)
	loop.Setup(sys.Mem)
	if system == "hmtx" {
		hmtx.Run(sys, loop, spec.Paradigm, 4)
	} else {
		smtx.Run(sys, loop, spec.Paradigm, 4, smtx.MaxSet, smtx.DefaultConfig())
	}
	return rec.evs
}

// TestTraceStamping: a memory-system event carries the time of the latest
// step or recorded engine event, and an engine event of an unrecorded
// category must not move that time. So each category's events in a run
// tracing every category equal, field for field, those of a run tracing
// that category alone. 052.alvinn without SLAs aborts under hmtx, so its
// stream holds conflicts, abort sweeps and re-executions (SMTX needs SLAs).
func TestTraceStamping(t *testing.T) {
	for _, tc := range []struct {
		bench, system string
		noSLA         bool
	}{
		{"164.gzip", "hmtx", false}, {"164.gzip", "smtx-max", false},
		{"052.alvinn", "hmtx", true}, {"052.alvinn", "smtx-max", false},
	} {
		all := traceRun(t, tc.bench, tc.system, tc.noSLA, obs.CatAll)
		for c := obs.Category(1); c < obs.CatAll; c <<= 1 {
			var want []obs.Event
			for _, e := range all {
				if e.Kind.Category() == c {
					want = append(want, e)
				}
			}
			got := traceRun(t, tc.bench, tc.system, tc.noSLA, c)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: %d %v events traced alone differ from the %d of a full trace",
					tc.bench, tc.system, len(got), c, len(want))
			}
		}
	}
}
