package instr

import (
	"reflect"
	"strings"
	"testing"

	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

// registered returns a hook with both components' registry histograms
// mounted in a fresh registry.
func registered(h *Hook) *obs.Registry {
	r := obs.NewRegistry()
	h.Register(r.Group("engine"), "engine")
	h.Register(r.Group("memsys"), "memsys")
	return r
}

// TestCkptRoundTrip: every instrument's state, registry histograms included,
// survives one capture and one restore, and the restored registry reads the
// same as the original.
func TestCkptRoundTrip(t *testing.T) {
	h := &Hook{Sinks: Sinks{Prof: prof.New(), Conflicts: metrics.NewRecorder(0), Lat: metrics.NewLatHists()}}
	reg := registered(h)
	for _, e := range []obs.Event{
		{Kind: obs.KCharge, VID: 1, Sub: uint8(prof.Validation), Arg: 7},
		{Kind: obs.KConflict, Addr: 0x40, Aux: 1, VID: 2, Sub: uint8(metrics.EdgeConflict)},
		{Kind: obs.KTxFootprint, Arg: 128, Aux: 64},
		{Kind: obs.KTxCommit, Cycle: 9, VID: 1, Arg: 300},
		{Kind: obs.KMemOp, Arg: 3},
		{Kind: obs.KMemOp, Sub: 1, Arg: 90},
		{Kind: obs.KRunEnd, Cycle: 9, Core: -1, Arg: 9, Aux: 1},
	} {
		h.Emit(e)
	}

	ck := h.CaptureCkpt()
	if got, want := ck.Attached(), [...]bool{true, false, true, true, true}; got != want {
		t.Fatalf("Attached = %v, want %v", got, want)
	}
	back := &Hook{Sinks: Sinks{Prof: prof.New(), Conflicts: metrics.NewRecorder(0), Lat: metrics.NewLatHists()}}
	if err := back.RestoreCkpt(ck); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(registered(back).Snapshot(), reg.Snapshot()) {
		t.Error("restored registry histograms differ")
	}
	if !reflect.DeepEqual(back.CaptureCkpt(), ck) {
		t.Error("restored instrument state differs")
	}
	var none *Hook
	if !reflect.DeepEqual(none.CaptureCkpt(), Ckpt{}) || !reflect.DeepEqual(none.Attached(), Sinks{}) {
		t.Error("a nil hook must capture and attach nothing")
	}
}

// TestCkptRejectsBadRegistry: registry-histogram state is checked when the
// checkpoint is restored, not when the histograms register later.
func TestCkptRejectsBadRegistry(t *testing.T) {
	h := &Hook{}
	registered(h)
	good := h.CaptureCkpt().ObsHists
	for _, tc := range []struct {
		name string
		edit func(map[string]obs.HistCkpt)
		want string
	}{
		{"missing", func(m map[string]obs.HistCkpt) { delete(m, "memsys/store_latency") }, "want 5"},
		{"unknown", func(m map[string]obs.HistCkpt) {
			m["memsys/bogus"] = m["memsys/load_latency"]
			delete(m, "memsys/load_latency")
		}, "memsys/load_latency is missing"},
		{"buckets", func(m map[string]obs.HistCkpt) {
			m["engine/tx_read_set"] = obs.HistCkpt{Counts: []uint64{1}}
		}, "engine/tx_read_set"},
	} {
		m := map[string]obs.HistCkpt{}
		for _, d := range regHists {
			m[d.key] = good[d.key]
		}
		tc.edit(m)
		err := (&Hook{}).RestoreCkpt(Ckpt{ObsHists: m})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreCkpt error = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
