package metrics

import (
	"strings"
	"testing"
)

// TestRecorderRestoreRejectsUnknownKind: an edge kind the recorder never
// writes is a corrupt checkpoint. Accepting it left a Kind past the
// per-kind tables, and the next Snapshot indexed out of range.
func TestRecorderRestoreRejectsUnknownKind(t *testing.T) {
	r := NewRecorder(512)
	err := r.RestoreCkpt(RecorderCkpt{Window: 512, Edges: []Edge{
		{Cycle: 10, Aborter: 1, Victim: 2, Addr: 0x40, KindName: "conflict"},
		{Cycle: 20, Aborter: 2, Victim: 3, Addr: 0x80, KindName: "bogus"},
	}})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("RestoreCkpt error = %v, want one naming kind \"bogus\"", err)
	}
	if n := len(r.Edges()); n != 0 {
		t.Errorf("a rejected checkpoint left %d edges behind", n)
	}
	r.Snapshot("x") // must not panic

	ok := NewRecorder(512)
	if err := ok.RestoreCkpt(RecorderCkpt{Window: 512, Edges: []Edge{
		{Cycle: 10, Aborter: 0, Victim: 2, Addr: 0x40, KindName: "overflow"},
	}}); err != nil {
		t.Fatal(err)
	}
	if e := ok.Edges()[0]; e.Kind != EdgeOverflow || e.KindName != "overflow" {
		t.Errorf("restored edge %+v, want kind overflow", e)
	}
}

// TestSamplerRestoreRejectsRaggedColumns: every column holds one value per
// sampled cycle. A shorter column used to restore without error and panic
// in Series.Text, and later samples kept it misaligned.
func TestSamplerRestoreRejectsRaggedColumns(t *testing.T) {
	s := NewSampler(10)
	s.Probe("x", func() uint64 { return 0 })
	err := s.RestoreCkpt(SamplerCkpt{Window: 10, Next: 30, Probes: []string{"x"},
		Cycles: []int64{10, 20}, Cols: [][]uint64{{1}}})
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("RestoreCkpt error = %v, want one naming column \"x\"", err)
	}
	if err := s.RestoreCkpt(SamplerCkpt{Window: 10, Next: 30, Probes: []string{"x"},
		Cycles: []int64{10, 20}, Cols: [][]uint64{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	sr := s.Snapshot("x")
	_ = sr.Text()
}
