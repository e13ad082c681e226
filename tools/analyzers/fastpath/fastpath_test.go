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
	// sim/internal/engine mixes the three instrument kinds under one
	// another's guards; other is out of scope and must stay silent despite
	// its unguarded emits, charges and records.
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer,
		"sim/internal/engine", "other")
}
