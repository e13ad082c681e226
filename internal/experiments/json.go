package experiments

import (
	"encoding/json"
	"io"

	"hmtx/internal/hmtx"
	"hmtx/internal/metrics"
	"hmtx/internal/prof"
	"hmtx/internal/stats"
)

// Doc is the machine-readable evaluation document ("hmtx-bench/v1") emitted
// by cmd/experiments -json. Struct field order and encoding/json's sorted map
// keys make the document byte-identical across runs of the same Config, so
// two BENCH_*.json files can be compared with cmp or diffed field by field
// (EXPERIMENTS.md).
type Doc struct {
	Schema     string      `json:"schema"`
	Scale      int         `json:"scale"`
	Cores      int         `json:"cores"`
	Benchmarks []BenchJSON `json:"benchmarks"`
	// GeomeanHMTX is the geometric-mean HMTX hot-loop speedup across all
	// benchmarks (the Figure 8 "Geomean (All)" row).
	GeomeanHMTX float64 `json:"geomean_hmtx_speedup"`
}

// BenchJSON is one benchmark's measurements.
type BenchJSON struct {
	Name      string   `json:"name"`
	Paradigm  string   `json:"paradigm"`
	SeqCycles int64    `json:"seq_cycles"`
	HMTX      SysJSON  `json:"hmtx"`
	SMTXMin   *SysJSON `json:"smtx_min,omitempty"`
	SMTXMax   *SysJSON `json:"smtx_max,omitempty"`

	// Per-transaction statistics of the HMTX run (Table 1 / Figure 9).
	Txs           uint64 `json:"txs"`
	SpecAccesses  uint64 `json:"spec_accesses"`
	SLAsSent      uint64 `json:"slas_sent"`
	AvoidedAborts uint64 `json:"avoided_aborts"`
	ReadSetBytes  uint64 `json:"read_set_bytes"`
	WriteSetBytes uint64 `json:"write_set_bytes"`
}

// SysJSON is one execution system's outcome on one benchmark.
type SysJSON struct {
	Cycles  int64   `json:"cycles"`
	Speedup float64 `json:"speedup"`
	Aborts  int     `json:"aborts"`
	Runs    int     `json:"runs"`
}

func sysJSON(seqCycles int64, out hmtx.Outcome) SysJSON {
	return SysJSON{
		Cycles:  out.Cycles,
		Speedup: float64(seqCycles) / float64(out.Cycles),
		Aborts:  out.Aborts,
		Runs:    out.Runs,
	}
}

// BuildDoc converts a RunAll result set into the JSON document.
func BuildDoc(cfg Config, results []BenchResult) Doc {
	doc := Doc{Schema: "hmtx-bench/v1", Scale: cfg.Scale, Cores: cfg.Cores}
	var speedups []float64
	for i := range results {
		r := &results[i]
		b := BenchJSON{
			Name:          r.Spec.Name,
			Paradigm:      r.Spec.Paradigm.String(),
			SeqCycles:     r.SeqCycles,
			HMTX:          sysJSON(r.SeqCycles, r.HMTXOut),
			Txs:           r.HMTXEng.Txs,
			SpecAccesses:  r.HMTXEng.SpecAccesses,
			SLAsSent:      r.HMTXMem.SLAsSent,
			AvoidedAborts: r.HMTXEng.AvoidedAborts,
			ReadSetBytes:  r.HMTXEng.ReadSetBytes,
			WriteSetBytes: r.HMTXEng.WriteSetBytes,
		}
		if r.Spec.HasSMTX {
			mn := sysJSON(r.SeqCycles, r.SMTXMinOut)
			mx := sysJSON(r.SeqCycles, r.SMTXMaxOut)
			b.SMTXMin, b.SMTXMax = &mn, &mx
		}
		speedups = append(speedups, b.HMTX.Speedup)
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	doc.GeomeanHMTX = stats.Geomean(speedups)
	return doc
}

// WriteJSON writes any document as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// collect gathers one part of every metric set in the suite, in spec order
// with the per-benchmark system order seq, hmtx, smtx-min, smtx-max. Results
// from a Config without Metrics set contribute nothing.
func collect[T any](results []BenchResult, part func(*MetricSet) T) []T {
	var out []T
	for i := range results {
		for _, m := range results[i].metricSets() {
			if m != nil {
				out = append(out, part(m))
			}
		}
	}
	return out
}

// BuildSeriesDoc collects the suite's time-series snapshots into one
// hmtx-series/v1 document, in collect's order.
func BuildSeriesDoc(cfg Config, results []BenchResult) metrics.SeriesDoc {
	return metrics.SeriesDoc{Schema: metrics.SeriesSchema, Scale: cfg.Scale, Cores: cfg.Cores,
		Series: collect(results, func(m *MetricSet) metrics.Series { return m.Series })}
}

// BuildConflictDoc collects the suite's conflict graphs into one
// hmtx-conflicts/v1 document, in collect's order.
func BuildConflictDoc(cfg Config, results []BenchResult) metrics.ConflictDoc {
	return metrics.ConflictDoc{Schema: metrics.ConflictSchema, Scale: cfg.Scale, Cores: cfg.Cores,
		Graphs: collect(results, func(m *MetricSet) metrics.Graph { return m.Conflicts })}
}

// BuildHistDoc collects the suite's latency histograms into one hmtx-hist/v1
// document, in collect's order.
func BuildHistDoc(cfg Config, results []BenchResult) metrics.HistDoc {
	return metrics.HistDoc{Schema: metrics.HistSchema, Scale: cfg.Scale, Cores: cfg.Cores,
		Histograms: collect(results, func(m *MetricSet) metrics.LabeledHists { return m.Hists })}
}

// BuildProfDoc collects the suite's cycle-attribution profiles into one
// hmtx-prof/v1 document, in spec order with the per-benchmark system order
// seq, hmtx, smtx-min, smtx-max. Results from a Config without Profile set
// produce an empty profile list.
func BuildProfDoc(cfg Config, results []BenchResult) prof.Doc {
	doc := prof.Doc{Schema: prof.Schema, Scale: cfg.Scale, Cores: cfg.Cores}
	for i := range results {
		r := &results[i]
		for _, p := range []*prof.Profile{r.SeqProf, r.HMTXProf, r.SMTXMinProf, r.SMTXMaxProf} {
			if p != nil {
				doc.Profiles = append(doc.Profiles, *p)
			}
		}
	}
	return doc
}
