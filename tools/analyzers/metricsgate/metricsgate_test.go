// Package metricsgate tests the fastpath analyzer's internal/metrics row, which
// took over the metricsgate rule.
package metricsgate

import (
	"path/filepath"
	"testing"

	"hmtx/tools/analyzers/analysis/analysistest"
	"hmtx/tools/analyzers/fastpath"
)

func TestMetricsgate(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "fastpath", "testdata"), fastpath.Analyzer,
		"metrics/internal/engine")
}
