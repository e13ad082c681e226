// Command experiments regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated 4-core HMTX machine.
//
// Usage:
//
//	experiments [-scale N] [-cores N] [-parallel N]
//	            [-only fig8,table1,...]
//	            [-ablations] [-json BENCH_run.json] [-prof PROF_run.json]
//	            [-series SERIES_run.json] [-series-window N]
//	            [-conflicts CONFLICTS_run.json] [-hist HIST_run.json]
//	            [-ckpt-every N] [-ckpt-out ckpt.json] [-ckpt-halt]
//	            [-resume ckpt.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With no -only list it runs everything: Figure 1, Figure 2, Table 1,
// Table 2, Figure 8, Figure 9 and Table 3, plus the design-choice ablations
// when -ablations is set. -json additionally writes the raw measurements as
// a deterministic "hmtx-bench/v1" document (see EXPERIMENTS.md for how to
// diff two of them); -prof attaches the cycle-attribution profiler to every
// simulation and writes the suite's profiles as an "hmtx-prof/v1" document
// (inspect, diff or fold them with cmd/hmtxreport). -series, -conflicts and -hist
// attach the DESIGN.md §15 metric instruments to every simulation and write
// the suite's time-series ("hmtx-series/v1"), conflict-graph
// ("hmtx-conflicts/v1") and latency-histogram ("hmtx-hist/v1") documents,
// which cmd/hmtxreport turns into an HTML report. All documents are
// byte-identical at every -parallel setting: -parallel runs whole
// simulations concurrently, each on its own simulated machine.
//
// Checkpointing (DESIGN.md §18): with -parallel 1, -ckpt-every N writes an
// hmtx-ckpt/v1 suite checkpoint to -ckpt-out after every N completed
// (benchmark, mode) units; -ckpt-halt stops the suite at the first
// checkpoint, and -resume continues it, re-running only the remaining units.
// Because every unit owns its own simulated machine, a resumed suite's
// documents are byte-identical to an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hmtx/internal/ckpt"
	"hmtx/internal/experiments"
	"hmtx/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command with its flags and standard output as parameters;
// progress goes to os.Stderr unless -q is set.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scale := fs.Int("scale", 1, "iteration-count multiplier for every benchmark")
	cores := fs.Int("cores", 4, "number of simulated cores")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	only := fs.String("only", "", "comma-separated subset: fig1,fig2,fig8,fig9,table1,table2,table3")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablations")
	quiet := fs.Bool("q", false, "suppress progress output")
	jsonOut := fs.String("json", "", "write the raw measurements as deterministic JSON to this file")
	profOut := fs.String("prof", "", "profile every simulation and write the hmtx-prof/v1 document to this file")
	seriesOut := fs.String("series", "", "sample every simulation and write the hmtx-series/v1 document to this file")
	seriesWindow := fs.Int64("series-window", 0, "time-series sampling window in simulated cycles (0 = default)")
	conflictsOut := fs.String("conflicts", "", "record abort edges and write the hmtx-conflicts/v1 document to this file")
	histOut := fs.String("hist", "", "collect latency histograms and write the hmtx-hist/v1 document to this file")
	ckptEvery := fs.Int("ckpt-every", 0, "checkpoint after every N completed (benchmark, mode) units (0 = off; requires -parallel 1)")
	ckptOut := fs.String("ckpt-out", "", "write an hmtx-ckpt/v1 suite checkpoint to this file at each checkpoint")
	ckptHalt := fs.Bool("ckpt-halt", false, "halt the suite at the first checkpoint (after writing -ckpt-out)")
	resume := fs.String("resume", "", "resume a halted suite from an hmtx-ckpt/v1 checkpoint file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	metricsOn := *seriesOut != "" || *conflictsOut != "" || *histOut != ""
	cfg := experiments.Config{
		Scale: *scale, Cores: *cores, Parallelism: *parallel,
		Profile: *profOut != "",
		Metrics: metricsOn, MetricsWindow: *seriesWindow,
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}
	pick := func(k string) bool { return len(want) == 0 || want[k] }

	if pick("table2") {
		fmt.Fprintln(stdout, experiments.Table2(cfg))
	}
	if pick("fig1") {
		fmt.Fprintln(stdout, experiments.Fig1(*cores))
	}

	needSuite := *jsonOut != "" || *profOut != "" || metricsOn ||
		pick("fig2") || pick("fig8") || pick("fig9") || pick("table1") || pick("table3")
	if needSuite {
		var progress io.Writer = os.Stderr
		if *quiet {
			progress = nil
		}
		var results []experiments.BenchResult
		ckptOn := *ckptEvery > 0 || *ckptOut != "" || *ckptHalt || *resume != ""
		if ckptOn {
			// Suite checkpoints cut at (benchmark, mode) unit boundaries,
			// which requires the serial unit order.
			if cfg.Parallelism != 1 {
				return fmt.Errorf("checkpointing requires -parallel 1")
			}
			if (*ckptOut != "" || *ckptHalt) && *ckptEvery <= 0 {
				return fmt.Errorf("-ckpt-out and -ckpt-halt need -ckpt-every")
			}
			opts := experiments.CkptOptions{Every: *ckptEvery}
			if *resume != "" {
				doc, err := ckpt.ReadFile(*resume)
				if err != nil {
					return err
				}
				if doc.Kind != ckpt.KindExperiments {
					return fmt.Errorf("%s is a %q checkpoint; experiments resumes %q checkpoints (hmtxsim -resume handles runs, hmtxdbg opens counterexamples)",
						*resume, doc.Kind, ckpt.KindExperiments)
				}
				if doc.Experiments.Config != cfg {
					return fmt.Errorf("checkpoint was taken under -scale %d -cores %d and the matching instrument flags; rerun with the same configuration",
						doc.Experiments.Config.Scale, doc.Experiments.Config.Cores)
				}
				st := doc.Experiments.State
				opts.Resume = &st
			}
			var unitsDone int
			var werr error
			if *ckptOut != "" || *ckptHalt {
				opts.Checkpoint = func(st experiments.CkptState) bool {
					if *ckptOut != "" {
						doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindExperiments,
							Experiments: &ckpt.ExperimentsState{Config: cfg, State: st}}
						if werr = ckpt.WriteFile(*ckptOut, doc); werr != nil {
							return true
						}
					}
					unitsDone = len(st.Done)
					return *ckptHalt
				}
			}
			var halted bool
			var err error
			results, halted, err = experiments.RunSpecsCkpt(cfg, workloads.All(), progress, opts)
			if err != nil {
				return err
			}
			if werr != nil {
				return werr
			}
			if halted {
				where := ""
				if *ckptOut != "" {
					where = " -> " + *ckptOut
				}
				fmt.Fprintf(stdout, "checkpoint: suite halted after %d units%s (continue with -resume)\n", unitsDone, where)
				return nil
			}
		} else {
			results = experiments.RunAll(cfg, progress)
		}
		for _, d := range []struct {
			path  string
			build func() any
		}{
			{*jsonOut, func() any { return experiments.BuildDoc(cfg, results) }},
			{*profOut, func() any { return experiments.BuildProfDoc(cfg, results) }},
			{*seriesOut, func() any { return experiments.BuildSeriesDoc(cfg, results) }},
			{*conflictsOut, func() any { return experiments.BuildConflictDoc(cfg, results) }},
			{*histOut, func() any { return experiments.BuildHistDoc(cfg, results) }},
		} {
			if d.path == "" {
				continue
			}
			if err := writeDoc(d.path, d.build()); err != nil {
				return err
			}
		}
		if pick("table1") {
			fmt.Fprintln(stdout, experiments.Table1(results))
		}
		if pick("fig2") {
			fmt.Fprintln(stdout, experiments.Fig2(results))
		}
		if pick("fig8") {
			fmt.Fprintln(stdout, experiments.Fig8(results))
		}
		if pick("fig9") {
			fmt.Fprintln(stdout, experiments.Fig9(results))
		}
		if pick("table3") {
			fmt.Fprintln(stdout, experiments.Table3(cfg, results))
		}
	}

	if *ablations {
		fmt.Fprintln(stdout, experiments.AblationSLA(cfg))
		fmt.Fprintln(stdout, experiments.AblationVIDWidth(cfg))
		fmt.Fprintln(stdout, experiments.AblationLazyCommit(cfg))
		fmt.Fprintln(stdout, experiments.AblationScaling(cfg))
		fmt.Fprintln(stdout, experiments.Paradigms(cfg))
	}
	return nil
}

// writeDoc writes one output document to path.
func writeDoc(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
