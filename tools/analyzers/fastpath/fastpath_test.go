package fastpath_test

import (
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/fastpath"
)

// Each gate row has its own fixture package and test: trace/internal/memsys
// (TestTracegate), prof/internal/engine (TestProfgate) and
// metrics/internal/engine (TestMetricsgate).
func TestFastpath(t *testing.T) {
	// hook/internal/engine and hook/internal/memsys police the instrument
	// hook's row; sim/internal/engine mixes the three instrument kinds under
	// one another's guards; scope/internal/instr is the hook's own package,
	// where the instrument rows apply too; other is out of scope and must
	// stay silent despite its unguarded emits, charges and records.
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer,
		"hook/internal/engine", "hook/internal/memsys", "sim/internal/engine",
		"scope/internal/instr", "other")
}

// TestTracegate covers the obs.Tracer Emit row, which took over the former
// tracegate analyzer's rule.
func TestTracegate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer, "trace/internal/memsys")
}

// TestProfgate covers the prof.Collector row, which took over the former
// profgate analyzer's rule.
func TestProfgate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer, "prof/internal/engine")
}

// TestMetricsgate covers the three internal/metrics rows, which took over the
// former metricsgate analyzer's rule.
func TestMetricsgate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer, "metrics/internal/engine")
}
