package benchfmt

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: hmtx/internal/memsys
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkL1HitLoad         	80195804	        30.71 ns/op	       0 B/op	       0 allocs/op
BenchmarkSnoopMiss-4       	 8825539	       268.6 ns/op	     112 B/op	       1 allocs/op
BenchmarkLazyCommit        	212345678	         5.335 ns/op
PASS
ok  	hmtx/internal/memsys	10.183s
`
	bs, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(bs), bs)
	}
	// Sorted by name, -4 suffix stripped.
	if bs[0].Name != "BenchmarkL1HitLoad" || bs[1].Name != "BenchmarkLazyCommit" || bs[2].Name != "BenchmarkSnoopMiss" {
		t.Fatalf("wrong names/order: %+v", bs)
	}
	if bs[0].NsPerOp != 30.71 || bs[0].AllocsPerOp != 0 || bs[0].BytesPerOp != 0 {
		t.Errorf("L1HitLoad = %+v", bs[0])
	}
	if bs[2].NsPerOp != 268.6 || bs[2].BytesPerOp != 112 || bs[2].AllocsPerOp != 1 {
		t.Errorf("SnoopMiss = %+v", bs[2])
	}
	if bs[1].NsPerOp != 5.335 || bs[1].AllocsPerOp != 0 {
		t.Errorf("LazyCommit = %+v", bs[1])
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	doc := Doc{
		Schema: Schema,
		Host:   Host{GoOS: "linux", GoArch: "amd64", CPUs: 4},
		Suite: Suite{
			Parallelism:    8,
			WallSeconds:    1.25,
			GeomeanHMTX:    2.71,
			TotalSeqCycles: 123456789,
		},
		Benchmarks: []Benchmark{{Name: "BenchmarkX", NsPerOp: 30.7, AllocsPerOp: 0}},
		Notes:      []string{"test snapshot"},
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != doc.Suite || got.Host != doc.Host || len(got.Benchmarks) != 1 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

// TestReadCommittedBaseline pins that the committed BENCH_2.json baseline,
// which the CI bench job diffs against, still parses. It predates the
// retirement of -domains, so its suite and large-run entries carry a
// "domains" key the current structs ignore.
func TestReadCommittedBaseline(t *testing.T) {
	f, err := os.Open("../../BENCH_2.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := Read(f)
	if err != nil {
		t.Fatalf("BENCH_2.json: %v", err)
	}
	if doc.Suite.TotalSeqCycles == 0 || doc.Suite.GeomeanHMTX == 0 || len(doc.Benchmarks) == 0 {
		t.Errorf("suite digest or benchmarks missing: %+v", doc.Suite)
	}
	if len(doc.LargeRuns) == 0 {
		t.Fatal("large runs missing")
	}
	for _, r := range doc.LargeRuns {
		if r.Cores != 64 || r.Cycles != doc.LargeRuns[0].Cycles || r.WallSeconds <= 0 {
			t.Errorf("large run %+v", r)
		}
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"hmtx-bench/v1"}`)); err == nil {
		t.Fatal("Read accepted an hmtx-bench/v1 document")
	}
}
