package experiments

import (
	"bytes"
	"strings"
	"testing"

	"hmtx/internal/workloads"
)

// subset returns a small benchmark set covering both unit shapes (with and
// without an SMTX comparison) so the determinism test stays fast.
func subset(t *testing.T) []workloads.Spec {
	t.Helper()
	var specs []workloads.Spec
	for _, name := range []string{"ispell", "052.alvinn", "456.hmmer"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestParallelSuiteDeterminism is the package's determinism contract: the
// hmtx-bench/v1 document produced with a worker pool must be byte-identical
// to the serial one. Run under -race this also exercises the pool for data
// races (each unit owns its engine.System and a disjoint result field group).
func TestParallelSuiteDeterminism(t *testing.T) {
	specs := subset(t)

	docBytes := func(parallelism int) []byte {
		cfg := Default()
		cfg.Parallelism = parallelism
		results := RunSpecs(cfg, specs, nil)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, BuildDoc(cfg, results)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := docBytes(1)
	parallel := docBytes(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel suite JSON differs from serial:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel)
	}
}

// TestSerialProgressFormat pins the progress lines of the serial path, which
// scripts may scrape: one line per benchmark, exactly as before the pool
// existed.
func TestSerialProgressFormat(t *testing.T) {
	specs := subset(t)[:1]
	var buf bytes.Buffer
	cfg := Default()
	cfg.Scale = 1
	RunSpecs(cfg, specs, &buf)
	want := "running ispell       (PS-DSWP, scale 1)...\n"
	if buf.String() != want {
		t.Fatalf("serial progress = %q, want %q", buf.String(), want)
	}
}

// TestParallelProgressCoversUnits checks that the parallel path reports every
// (benchmark, mode) unit, whatever order they finish in.
func TestParallelProgressCoversUnits(t *testing.T) {
	spec, err := workloads.ByName("456.hmmer") // has SMTX, so four units
	if err != nil {
		t.Fatal(err)
	}
	specs := []workloads.Spec{spec}
	var buf bytes.Buffer
	cfg := Default()
	cfg.Parallelism = 4
	RunSpecs(cfg, specs, &buf)
	out := buf.String()
	for _, mode := range []string{"seq", "hmtx", "smtx-min", "smtx-max"} {
		if !strings.Contains(out, mode) {
			t.Errorf("parallel progress missing %s unit:\n%s", mode, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 4 {
		t.Errorf("parallel progress has %d lines, want 4:\n%s", got, out)
	}
}

// TestParallelMetricsDeterminism extends the determinism contract to the
// DESIGN.md §15 metric documents: series, conflict, and histogram JSON must
// be byte-identical between a serial and a pooled suite run.
func TestParallelMetricsDeterminism(t *testing.T) {
	specs := subset(t)[:2]

	docsBytes := func(parallelism int) [3][]byte {
		cfg := Default()
		cfg.Parallelism = parallelism
		cfg.Metrics = true
		cfg.MetricsWindow = 1024
		results := RunSpecs(cfg, specs, nil)
		var out [3][]byte
		for i, doc := range []any{
			BuildSeriesDoc(cfg, results),
			BuildConflictDoc(cfg, results),
			BuildHistDoc(cfg, results),
		} {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, doc); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}

	serial := docsBytes(1)
	parallel := docsBytes(8)
	for i, name := range []string{"series", "conflicts", "hist"} {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("parallel %s JSON differs from serial", name)
		}
	}
	// The metric sets must actually be populated, in canonical order.
	if !bytes.Contains(serial[0], []byte(`"label": "ispell/seq"`)) ||
		!bytes.Contains(serial[0], []byte(`"label": "ispell/hmtx"`)) {
		t.Error("series doc missing expected labels")
	}
}
