package fastpath_test

import (
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/fastpath"
)

// hook/internal/engine and hook/internal/memsys police the hook's Emit;
// other is out of scope and must stay silent despite its unguarded emit.
func TestFastpath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), fastpath.Analyzer,
		"hook/internal/engine", "hook/internal/memsys", "other")
}
