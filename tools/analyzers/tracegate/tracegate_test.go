// Package tracegate tests the fastpath analyzer's obs.Tracer Emit row, which
// took over the tracegate rule.
package tracegate

import (
	"path/filepath"
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/fastpath"
)

func TestTracegate(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "fastpath", "testdata"), fastpath.Analyzer,
		"trace/internal/memsys")
}
