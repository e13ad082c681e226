// Package metrics is a stand-in for the simulator's metric instruments: its
// structs end up in the hmtx-series and hmtx-hist documents, so they are
// simulation-visible state for the detflow fixtures.
package metrics

// Series is one named time series.
type Series struct {
	Name   string
	Values []uint64
}
