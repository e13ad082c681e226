// Package benchfmt defines the "hmtx-perf/v1" performance document shared by
// tools/perfsnap (which writes it) and tools/benchdiff (which compares two of
// them), plus a parser for `go test -bench` output.
//
// Unlike the deterministic "hmtx-bench/v1" document of internal/experiments —
// whose simulated-cycle numbers must match bit-for-bit across runs — a perf
// document records host measurements (wall-clock seconds, ns/op) that vary
// between machines and runs. benchdiff therefore compares the two schemas
// differently: simulated metrics exactly, host metrics within a guardband
// (EXPERIMENTS.md).
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema is the schema tag of the performance document.
const Schema = "hmtx-perf/v1"

// Doc is one recorded performance snapshot (a BENCH_*.json file).
type Doc struct {
	Schema string `json:"schema"`
	// Host describes the machine the snapshot was taken on, so readers can
	// judge whether two documents are comparable at all.
	Host Host `json:"host"`
	// Suite holds the wall-clock measurement of the experiment suite, and
	// the simulated digest that proves the run measured the same work.
	Suite Suite `json:"suite"`
	// Benchmarks holds `go test -bench` microbenchmark results by name.
	Benchmarks []Benchmark `json:"benchmarks,omitempty"`
	// LargeRuns holds wall-clock measurements of a large simulated
	// configuration (64+ cores), so a snapshot records how the engine
	// scales with core count on this host. Older snapshots hold one entry
	// per retired -domains setting; readers ignore that key.
	LargeRuns []LargeRun `json:"large_runs,omitempty"`
	// Notes records caveats about the snapshot (e.g. a single-CPU host
	// cannot show parallel-suite speedups).
	Notes []string `json:"notes,omitempty"`
}

// Host identifies the measurement machine.
type Host struct {
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	CPU    string `json:"cpu,omitempty"`
}

// Suite is the experiment-suite measurement.
type Suite struct {
	// Parallelism is the -parallel setting the suite ran with.
	Parallelism int `json:"parallelism"`
	// WallSeconds is the host time the suite took.
	WallSeconds float64 `json:"wall_seconds"`
	// GeomeanHMTX and TotalSeqCycles digest the simulated results: they
	// are deterministic, so two comparable snapshots must agree exactly.
	GeomeanHMTX    float64 `json:"geomean_hmtx_speedup"`
	TotalSeqCycles int64   `json:"total_seq_cycles"`
}

// LargeRun is one timed run of the large scaling configuration.
type LargeRun struct {
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// WallSeconds is the host time the run took.
	WallSeconds float64 `json:"wall_seconds"`
	// Cycles is the simulated execution time — deterministic, so two
	// snapshots of the same core count must report the same value.
	Cycles int64 `json:"cycles"`
	// Instructions digests the simulated work, same determinism contract.
	Instructions uint64 `json:"instructions"`
}

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Write marshals the document as indented JSON with a trailing newline.
func Write(w io.Writer, doc Doc) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Read parses a performance document and checks its schema tag.
func Read(r io.Reader) (Doc, error) {
	var doc Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Doc{}, err
	}
	if doc.Schema != Schema {
		return Doc{}, fmt.Errorf("benchfmt: schema %q, want %q", doc.Schema, Schema)
	}
	return doc, nil
}

// ParseGoBench parses `go test -bench -benchmem` output into Benchmark
// records, sorted by name. Lines that are not benchmark results (headers,
// PASS/ok trailers) are skipped. A benchmark that appears several times
// (e.g. -count > 1) keeps the last measurement.
func ParseGoBench(r io.Reader) ([]Benchmark, error) {
	byName := map[string]Benchmark{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// Benchmark<Name>-<P> <iters> <ns> ns/op [<B> B/op <allocs> allocs/op]
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: bad ns/op in %q: %v", sc.Text(), err)
		}
		b := Benchmark{Name: name, NsPerOp: ns}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		byName[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Benchmark, 0, len(byName))
	for _, b := range byName {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
