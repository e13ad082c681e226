// Package txbalance tests txpath's Begin/Commit balance and Env-escape rules
// on the txb fixture; txpath took over the txbalance rule.
package txbalance

import (
	"path/filepath"
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/txpath"
)

func TestTxbalance(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "txpath", "testdata"), txpath.Analyzer, "txb")
}
