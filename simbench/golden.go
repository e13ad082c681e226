package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hmtx/internal/stats"
	"hmtx/internal/workloads"
)

// defaultSeed is the seed whose outcomes the golden files pin. It is the
// engine's default seed, so the paper-suite goldens are the paper tables.
const defaultSeed = 1

// The ROADMAP fixed points the recorded paper suite must reproduce: the
// Fig. 8 geomean HMTX hot-loop speedup over all eight kernels and the total
// sequential cycles.
const (
	fixedGeomean   = 2.0769022668860426
	fixedSeqCycles = 16748339
)

const goldenSchema = "simbench-golden/v1"

//go:embed golden/*.json
var goldenFS embed.FS

// goldenDoc is one workload's golden file.
type goldenDoc struct {
	Schema   string            `json:"schema"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Units    map[string]Record `json:"units"`
}

func loadGolden(workload string) (map[string]Record, error) {
	buf, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var doc goldenDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	if doc.Schema != goldenSchema || doc.Workload != workload || doc.Seed != defaultSeed {
		return nil, fmt.Errorf("golden %s: header %s/%s/seed %d does not match", workload, doc.Schema, doc.Workload, doc.Seed)
	}
	if workload == "paper-suite" {
		if err := checkFixedPoints(doc.Units); err != nil {
			return nil, fmt.Errorf("golden %s: %w", workload, err)
		}
	}
	return doc.Units, nil
}

// checkFixedPoints verifies that paper-suite records reproduce the ROADMAP
// fixed points exactly.
func checkFixedPoints(units map[string]Record) error {
	var speedups []float64
	var seqTotal int64
	for _, spec := range workloads.All() {
		seq, ok1 := units[spec.Name+"/seq"]
		par, ok2 := units[spec.Name+"/hmtx"]
		if !ok1 || !ok2 {
			return fmt.Errorf("missing %s seq or hmtx record", spec.Name)
		}
		speedups = append(speedups, float64(seq.Cycles)/float64(par.Cycles))
		seqTotal += seq.Cycles
	}
	if g := stats.Geomean(speedups); g != fixedGeomean {
		return fmt.Errorf("geomean HMTX speedup %v, ROADMAP fixed point %v", g, fixedGeomean)
	}
	if seqTotal != fixedSeqCycles {
		return fmt.Errorf("total sequential cycles %d, ROADMAP fixed point %d", seqTotal, fixedSeqCycles)
	}
	return nil
}

// diffRecords describes how got differs from want, field by field.
func diffRecords(want, got Record, what string) error {
	a, err1 := flatten(want)
	b, err2 := flatten(got)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("encoding records: %v %v", err1, err2)
	}
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %s != %s", k, b[k], v))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s %s unexpected", k, v))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("and %d more", len(diffs)-4))
	}
	return fmt.Errorf("drifted from %s: %s", what, strings.Join(diffs, "; "))
}

// flatten maps a record's JSON leaves to their encoded values.
func flatten(r Record) (map[string]string, error) {
	buf, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var tree map[string]any
	if err := json.Unmarshal(buf, &tree); err != nil {
		return nil, err
	}
	out := map[string]string{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if m, ok := v.(map[string]any); ok {
			for k, c := range m {
				walk(prefix+k+".", c)
			}
			return
		}
		enc, _ := json.Marshal(v) // re-encoding a decoded JSON value cannot fail
		out[strings.TrimSuffix(prefix, ".")] = string(enc)
	}
	walk("", tree)
	return out, nil
}

// record runs every workload's pass at the default seed and writes the
// golden files into dir, refusing a paper suite that misses the fixed points.
func record(dir string) error {
	for _, w := range allWorkloads {
		b := newBench(defaultSeed, nil)
		var refs []unit
		if w.refs != nil {
			refs = w.refs()
		}
		for _, u := range refs {
			if _, err := b.runUnit(u); err != nil {
				return fmt.Errorf("%s %s reference: %w", w.name, u.key, err)
			}
		}
		doc := goldenDoc{Schema: goldenSchema, Workload: w.name, Seed: defaultSeed, Units: map[string]Record{}}
		for _, u := range w.units(defaultSeed) {
			rec, err := b.runUnit(u)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, u.key, err)
			}
			doc.Units[u.key] = rec
		}
		if w.name == "paper-suite" {
			if err := checkFixedPoints(doc.Units); err != nil {
				return err
			}
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
