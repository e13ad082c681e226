// Package profgate tests the fastpath analyzer's prof.Collector row, which
// took over the profgate rule.
package profgate

import (
	"path/filepath"
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/fastpath"
)

func TestProfgate(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "fastpath", "testdata"), fastpath.Analyzer,
		"prof/internal/engine")
}
