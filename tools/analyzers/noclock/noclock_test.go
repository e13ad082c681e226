package noclock_test

import (
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/noclock"
)

func TestNoclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), noclock.Analyzer,
		"clock", "hmtx/internal/engine", "hmtx/cmd/hmtxsim")
}
