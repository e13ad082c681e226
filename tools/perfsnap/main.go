// Command perfsnap records a performance snapshot of the simulator as an
// "hmtx-perf/v1" document (a BENCH_*.json file, see EXPERIMENTS.md).
//
// Usage:
//
//	perfsnap [-parallel N] [-scale N] [-large-cores N] [-bench-file bench.txt]
//	         [-note "..."] -o BENCH_1.json
//
// perfsnap runs the full experiment suite under a wall-clock timer and
// records both the host time and a digest of the simulated results (which
// must be identical across comparable snapshots — drift means the snapshots
// measured different work). -large-cores N also times one run of a large
// N-core configuration. -bench-file folds in microbenchmark results
// captured separately with
//
//	go test ./internal/memsys/ -run '^$' -bench . -benchmem > bench.txt
//
// Wall-clock timing deliberately lives here rather than in the simulation
// packages: tools/ is outside the determinism lint scope (simscope), so the
// simulator itself stays free of ambient time sources.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"hmtx/internal/engine"
	"hmtx/internal/experiments"
	"hmtx/internal/memsys"
	"hmtx/internal/vid"
	"hmtx/tools/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfsnap: ")
	parallel := flag.Int("parallel", 0, "suite parallelism (0 = GOMAXPROCS, 1 = serial)")
	largeCores := flag.Int("large-cores", 0, "also time one run of a large configuration with this many simulated cores (0 = skip)")
	scale := flag.Int("scale", 1, "iteration-count multiplier for every benchmark")
	benchFile := flag.String("bench-file", "", "fold in `go test -bench -benchmem` output from this file")
	note := flag.String("note", "", "caveat to record in the document")
	out := flag.String("o", "", "output file (required)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()
	if *out == "" {
		log.Fatal("-o is required")
	}

	doc := benchfmt.Doc{
		Schema: benchfmt.Schema,
		Host: benchfmt.Host{
			GoOS:   runtime.GOOS,
			GoArch: runtime.GOARCH,
			CPUs:   runtime.NumCPU(),
		},
	}

	if *benchFile != "" {
		f, err := os.Open(*benchFile)
		if err != nil {
			log.Fatal(err)
		}
		doc.Benchmarks, err = benchfmt.ParseGoBench(f)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.Parallelism = *parallel
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	start := time.Now()
	results := experiments.RunAll(cfg, progress)
	wall := time.Since(start)

	bd := experiments.BuildDoc(cfg, results)
	var totalSeq int64
	for _, b := range bd.Benchmarks {
		totalSeq += b.SeqCycles
	}
	doc.Suite = benchfmt.Suite{
		Parallelism:    *parallel,
		WallSeconds:    wall.Seconds(),
		GeomeanHMTX:    bd.GeomeanHMTX,
		TotalSeqCycles: totalSeq,
	}

	if *largeCores > 0 {
		doc.LargeRuns = []benchfmt.LargeRun{runLarge(*largeCores, progress)}
	}

	if *note != "" {
		doc.Notes = append(doc.Notes, *note)
	}
	if runtime.NumCPU() == 1 {
		doc.Notes = append(doc.Notes, "single-CPU host: suite parallelism cannot improve wall-clock here")
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	//hmtx:detsafe perfsnap snapshots deliberately record host wall-clock and CPU metadata; profdiff compares cycle counts, never these fields
	if err := benchfmt.Write(f, doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perfsnap: suite %.2fs wall (parallelism %d), %d microbenchmarks -> %s\n",
		wall.Seconds(), *parallel, len(doc.Benchmarks), *out)
}

// largeProgs builds the scaling workload for -large-cores: every core runs
// transactions over a private line (loads, computes, learned branches), with
// commit arbitration as the only cross-core serialisation, at a configurable
// core count.
func largeProgs(nCores, txs int) []engine.Program {
	progs := make([]engine.Program, nCores)
	for i := 0; i < nCores; i++ {
		i := i
		progs[i] = func(e *engine.Env) {
			base := memsys.Addr(0x100000 + i*0x1000)
			for r := 0; r < txs; r++ {
				seq := vid.Seq(r*nCores + i + 1)
				e.Begin(seq)
				e.Store(base, uint64(r))
				for k := 0; k < 40; k++ {
					e.Load(base)
					e.Compute(int64(2 + k%7))
					e.Branch(uint64(i), true)
				}
				e.Commit(seq)
			}
		}
	}
	return progs
}

// runLarge times one run of the large configuration.
func runLarge(cores int, progress *os.File) benchfmt.LargeRun {
	const txs = 3
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = cores
	cfg.Mem.VIDSpace = vid.Space{Bits: 8}
	start := time.Now()
	s := engine.New(cfg)
	res := s.Run(largeProgs(cores, txs))
	wall := time.Since(start)
	if res.Aborted {
		log.Fatalf("large run aborted: %s", res.Cause)
	}
	if progress != nil {
		fmt.Fprintf(progress, "perfsnap: large %d-core run: %.3fs wall, %d cycles\n",
			cores, wall.Seconds(), res.Cycles)
	}
	return benchfmt.LargeRun{
		Cores:        cores,
		WallSeconds:  wall.Seconds(),
		Cycles:       res.Cycles,
		Instructions: s.Stats().Instructions,
	}
}
