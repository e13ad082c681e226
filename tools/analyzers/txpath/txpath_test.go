package txpath_test

import (
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/txpath"
)

func TestTxpath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), txpath.Analyzer, "txp")
}

// TestTxbalance runs the Begin/Commit balance and Env-escape rules on the
// txb fixture, the cases of the former txbalance analyzer, which txpath
// took over.
func TestTxbalance(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), txpath.Analyzer, "txb")
}
