package prof_test

import (
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/obs"
	"hmtx/internal/paradigm"
	"hmtx/internal/prof"
	"hmtx/internal/smtx"
	"hmtx/internal/workloads"
)

func newSys(t *testing.T, cores int) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = cores
	sys := engine.New(cfg)
	sys.SetProf(prof.New())
	return sys
}

// TestInvariantAcrossWorkloads runs every benchmark kernel under every
// parallel paradigm with profiling enabled and checks the partition
// invariant end to end: the in-sim core_done check already fires on any
// unattributed clock advance during the runs, and the snapshot must still
// sum exactly afterwards. This is the coverage test for the engine's charge
// sites: a c.time mutation without a matching charge fails here for whichever
// paradigm exercises it.
func TestInvariantAcrossWorkloads(t *testing.T) {
	kinds := []paradigm.Kind{paradigm.DOALL, paradigm.DOACROSS, paradigm.DSWP, paradigm.PSDSWP}
	for _, spec := range workloads.All() {
		for _, k := range kinds {
			spec, k := spec, k
			t.Run(spec.Name+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				sys := newSys(t, 4)
				loop := spec.New(1)
				loop.Setup(sys.Mem)
				out := hmtx.Run(sys, loop, k, 4)
				p := sys.Prof().Snapshot(spec.Name, "hmtx", k.String(), 0)
				if err := p.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
				if p.CoreCycles <= 0 {
					t.Fatalf("no cycles attributed (outcome %+v)", out)
				}
				if p.Runs != out.Runs {
					t.Errorf("profile saw %d runs, outcome reports %d", p.Runs, out.Runs)
				}
				if out.Aborts > 0 && p.Buckets["wasted"] == 0 {
					t.Errorf("%d aborts but no wasted cycles attributed", out.Aborts)
				}
			})
		}
	}
}

// TestWastedAgreesWithTimelines cross-checks the profiler's waste attribution
// against the trace-derived transaction timelines. The TxCollector now keeps
// one record per rolled-back attempt (instead of silently dropping open
// records on abort), so the two views must agree exactly: every VID the
// profile lists as re-executed must show the same number of aborted attempts
// in the timelines and vice versa, and the wasted bucket must be nonzero
// exactly when aborted attempts exist.
func TestWastedAgreesWithTimelines(t *testing.T) {
	kinds := []paradigm.Kind{paradigm.DOALL, paradigm.DOACROSS, paradigm.DSWP, paradigm.PSDSWP}
	sawAborts := false
	for _, spec := range workloads.All() {
		for _, k := range kinds {
			spec, k := spec, k
			t.Run(spec.Name+"/"+k.String(), func(t *testing.T) {
				sys := newSys(t, 4)
				tr := obs.NewTracer(obs.CatTxn, 0)
				col := obs.NewTxCollector()
				tr.Attach(col)
				sys.SetTracer(tr)
				loop := spec.New(1)
				loop.Setup(sys.Mem)
				out := hmtx.Run(sys, loop, k, 4)
				p := sys.Prof().Snapshot(spec.Name, "hmtx", k.String(), 0)
				if err := p.CheckInvariant(); err != nil {
					t.Fatal(err)
				}

				timeline := map[uint64]int{}
				for _, a := range col.Aborted() {
					if !a.Aborted {
						t.Fatalf("Aborted() returned a non-aborted record: %+v", a)
					}
					timeline[a.VID]++
				}
				profile := map[uint64]int{}
				for _, tx := range p.ReexecutedTxs {
					profile[tx.VID] = tx.AbortedAttempts
					if tx.WastedCycles <= 0 {
						t.Errorf("vid %d re-executed but wasted %d cycles", tx.VID, tx.WastedCycles)
					}
				}
				for v, n := range profile {
					if timeline[v] != n {
						t.Errorf("vid %d: profile says %d aborted attempts, timelines say %d", v, n, timeline[v])
					}
				}
				for v, n := range timeline {
					if _, ok := profile[v]; !ok {
						t.Errorf("vid %d: %d aborted attempts in timelines but absent from profile", v, n)
					}
				}

				if (p.Buckets["wasted"] > 0) != (len(timeline) > 0) {
					t.Errorf("wasted=%d cycles but %d aborted attempts in timelines",
						p.Buckets["wasted"], len(col.Aborted()))
				}
				if out.Aborts > 0 {
					sawAborts = true
					s := col.Summary()
					if s.AbortedAttempts == 0 {
						t.Error("run aborted but the timeline summary records no aborted attempts")
					}
					if s.RecommittedTxs == 0 {
						t.Error("run aborted and completed, but no transaction is marked recommitted")
					}
				}
			})
		}
	}
	if !sawAborts {
		t.Fatal("no workload aborted; the agreement check never exercised the abort path")
	}
}

// TestValidationShiftHMTXvsSMTX reproduces the paper's central observation in
// profile form (§2.3, §6): SMTX pays software validation cycles that HMTX
// moves into commit hardware. The HMTX profile must attribute zero cycles to
// the validation bucket; the SMTX profile must attribute a nonzero share.
func TestValidationShiftHMTXvsSMTX(t *testing.T) {
	spec, err := workloads.ByName("052.alvinn")
	if err != nil {
		t.Fatal(err)
	}

	hsys := newSys(t, 4)
	hloop := spec.New(1)
	hloop.Setup(hsys.Mem)
	hmtx.Run(hsys, hloop, spec.Paradigm, 4)
	hp := hsys.Prof().Snapshot(spec.Name, "hmtx", spec.Paradigm.String(), 0)

	ssys := newSys(t, 4)
	sloop := spec.New(1)
	sloop.Setup(ssys.Mem)
	smtx.Run(ssys, sloop, spec.Paradigm, 4, smtx.MaxSet, smtx.DefaultConfig())
	sp := ssys.Prof().Snapshot(spec.Name, "smtx-max", spec.Paradigm.String(), 0)

	for _, p := range []*prof.Profile{&hp, &sp} {
		if err := p.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	if v := hp.Buckets["validation"]; v != 0 {
		t.Errorf("HMTX attributed %d cycles to validation; hardware validation must be free of software cost", v)
	}
	if v := sp.Buckets["validation"]; v == 0 {
		t.Error("SMTX attributed no validation cycles; the software overhead is missing from the profile")
	}
	if hp.Buckets["commit"] == 0 {
		t.Error("HMTX attributed no commit cycles")
	}
}
