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
