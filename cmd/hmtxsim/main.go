// Command hmtxsim runs one benchmark on the simulated HMTX machine and
// prints its timing and speculative-execution statistics.
//
// Usage:
//
//	hmtxsim -bench 164.gzip [-system hmtx|smtx-min|smtx-max|seq]
//	        [-paradigm auto|doall|doacross|dswp|psdswp]
//	        [-cores 4] [-scale 1] [-no-sla] [-vid-bits 6] [-eager-commit]
//	        [-sanitize]
//	        [-trace] [-trace-cats bus,txn,...] [-trace-out trace.json]
//	        [-stats] [-stats-json stats.json]
//	        [-prof] [-prof-out prof.json] [-prof-folded prof.folded]
//	        [-series series.json] [-series-window 2048]
//	        [-conflicts conflicts.json] [-conflicts-dot conflicts.dot]
//	        [-cascade-window 512] [-hist hist.json]
//	        [-ckpt-every N] [-ckpt-out ckpt.json] [-ckpt-halt]
//	        [-resume ckpt.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Observability (DESIGN.md §10): -trace streams a gem5-style text log of the
// selected event categories to stdout; -trace-out writes the same events as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto). -stats
// dumps the hierarchical statistics registry as an aligned table; -stats-json
// writes the run summary plus the full registry as deterministic JSON.
//
// Profiling (DESIGN.md §13): -prof attributes every simulated cycle of every
// core to a bucket (compute, cache/memory latency by level, bus contention,
// commit, stalls, validation, abort, wasted re-execution) and prints the
// attribution tables; -prof-out writes the profile as an "hmtx-prof/v1"
// document for cmd/hmtxreport, and -prof-folded writes folded stacks for
// flamegraph tooling. All outputs are byte-identical across runs of the same
// configuration.
//
// Metrics (DESIGN.md §15): -series samples the run's counters every
// -series-window simulated cycles into an "hmtx-series/v1" time-series
// document; -conflicts records every who-aborted-whom edge and writes the
// "hmtx-conflicts/v1" conflict graph (with -conflicts-dot for a Graphviz
// rendering, cascades detected within -cascade-window cycles); -hist collects
// transaction latency histograms into an "hmtx-hist/v1" document. All three
// feed cmd/hmtxreport.
//
// Checkpointing (DESIGN.md §18): -ckpt-every N segments the run into
// N-iteration engine runs; -ckpt-out writes an hmtx-ckpt/v1 document with the
// full simulation state at each segment boundary, and -ckpt-halt stops the
// run at the first boundary. -resume continues a halted run from its
// checkpoint: the benchmark, machine configuration, paradigm, instruments and
// segment length all come from the document, and the resumed run's outputs
// (stdout and all five JSON documents) are byte-identical to the same
// segmented run left uninterrupted. Checkpoint files are also the input to
// cmd/hmtxdbg, the time-travel debugger.
//
// hmtxsim -list prints the available benchmarks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"hmtx/internal/ckpt"
	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/instr"
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/paradigm"
	"hmtx/internal/prof"
	"hmtx/internal/smtx"
	"hmtx/internal/vid"
	"hmtx/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// statsDoc is the -stats-json document ("hmtx-run/v1"): the run summary plus
// the nested statistics registry. Field order is fixed by the struct; the
// stats tree is a map, which encoding/json marshals with sorted keys, so the
// document is byte-identical across runs of the same configuration.
type statsDoc struct {
	Schema string         `json:"schema"`
	Run    runDoc         `json:"run"`
	Stats  map[string]any `json:"stats"`
}

type runDoc struct {
	Bench      string  `json:"bench"`
	System     string  `json:"system"`
	Paradigm   string  `json:"paradigm"`
	Cores      int     `json:"cores"`
	Scale      int     `json:"scale"`
	Iterations int     `json:"iterations"`
	Cycles     int64   `json:"cycles"`
	SeqCycles  int64   `json:"seq_cycles"`
	Speedup    float64 `json:"speedup"`
	Aborts     int     `json:"aborts"`
	Runs       int     `json:"runs"`
}

// writeJSON writes v to path as indented JSON with a trailing newline, the
// layout of every hmtx-* document.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// run is main's testable body: it parses args, runs the simulation and
// writes all output to stdout/stderr, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmtxsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name (see -list)")
	system := fs.String("system", "hmtx", "execution system: hmtx, smtx-min, smtx-max, seq")
	par := fs.String("paradigm", "auto", "paradigm: auto, doall, doacross, dswp, psdswp")
	cores := fs.Int("cores", 4, "number of simulated cores")
	scale := fs.Int("scale", 1, "iteration-count multiplier")
	noSLA := fs.Bool("no-sla", false, "disable speculative load acknowledgments (§5.1)")
	vidBits := fs.Uint("vid-bits", 6, "hardware VID width in bits (§4.6)")
	eager := fs.Bool("eager-commit", false, "use eager commit sweeps instead of lazy commits (§5.3)")
	sanitize := fs.Bool("sanitize", false, "run under MOESI-San: assert coherence invariants after every memory operation")
	trace := fs.Bool("trace", false, "stream a text event trace to stdout")
	traceCats := fs.String("trace-cats", "all", "comma-separated trace categories (bus,cache,version,overflow,sla,txn,commit,queue,engine) or \"all\"")
	traceOut := fs.String("trace-out", "", "write the event trace as Chrome trace_event JSON to this file")
	statsText := fs.Bool("stats", false, "dump the statistics registry as an aligned table")
	statsJSON := fs.String("stats-json", "", "write the run summary and statistics registry as JSON to this file")
	profText := fs.Bool("prof", false, "attribute every simulated cycle to a bucket and print the profile")
	profOut := fs.String("prof-out", "", "write the cycle profile as an hmtx-prof/v1 document to this file")
	profFolded := fs.String("prof-folded", "", "write the cycle profile as folded stacks (flamegraph input) to this file")
	seriesOut := fs.String("series", "", "write a windowed hmtx-series/v1 time-series document to this file")
	seriesWindow := fs.Int64("series-window", 0, "time-series sampling window in simulated cycles (0 = default)")
	conflictsOut := fs.String("conflicts", "", "write the hmtx-conflicts/v1 conflict-graph document to this file")
	conflictsDOT := fs.String("conflicts-dot", "", "write the conflict graph in Graphviz dot syntax to this file")
	cascadeWindow := fs.Int64("cascade-window", 0, "abort-cascade detection window in simulated cycles (0 = default)")
	histOut := fs.String("hist", "", "write the hmtx-hist/v1 latency-histogram document to this file")
	ckptEvery := fs.Int("ckpt-every", 0, "segment the run every N iterations for checkpointing (0 = off; -system hmtx only)")
	ckptOut := fs.String("ckpt-out", "", "write an hmtx-ckpt/v1 checkpoint to this file at each segment boundary")
	ckptHalt := fs.Bool("ckpt-halt", false, "halt the run at the first segment boundary (after writing -ckpt-out)")
	resume := fs.String("resume", "", "resume a halted run from an hmtx-ckpt/v1 checkpoint file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	list := fs.Bool("list", false, "list benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmtxsim: "+format+"\n", a...)
		return 1
	}

	// Resuming adopts the run's identity — benchmark, machine configuration,
	// paradigm, instruments, segment length — from the checkpoint; flags that
	// would contradict it are rejected rather than silently ignored.
	var rdoc *ckpt.Doc
	if *resume != "" {
		doc, err := ckpt.ReadFile(*resume)
		if err != nil {
			return fail("%v", err)
		}
		switch doc.Kind {
		case ckpt.KindRun:
		case ckpt.KindExperiments:
			return fail("%s is an experiment-suite checkpoint; resume it with cmd/experiments -resume", *resume)
		case ckpt.KindCheck:
			return fail("%s is a model-checker counterexample; open it with cmd/hmtxdbg", *resume)
		}
		rdoc = doc
		fixed := map[string]bool{"bench": true, "system": true, "paradigm": true,
			"cores": true, "scale": true, "no-sla": true, "vid-bits": true,
			"eager-commit": true, "sanitize": true, "ckpt-every": true,
			"series-window": true, "cascade-window": true}
		var bad string
		fs.Visit(func(f *flag.Flag) {
			if fixed[f.Name] {
				bad = f.Name
			}
		})
		if bad != "" {
			return fail("-%s conflicts with -resume: it is fixed by the checkpoint", bad)
		}
		rs := doc.Run
		if rs.System != "hmtx" {
			return fail("checkpoint records system %q; only hmtx runs are resumable", rs.System)
		}
		*bench, *system = rs.Bench, rs.System
		*cores, *scale = rs.Cores, rs.Scale
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "hmtxsim: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "hmtxsim: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "hmtxsim: %v\n", err)
			}
		}()
	}

	if *list {
		for _, s := range workloads.All() {
			smtxNote := ""
			if s.HasSMTX {
				smtxNote = " (SMTX comparison available)"
			}
			fmt.Fprintf(stdout, "%-12s %v%s\n", s.Name, s.Paradigm, smtxNote)
		}
		return 0
	}
	if *bench == "" {
		fs.Usage()
		return 2
	}
	spec, err := workloads.ByName(*bench)
	if err != nil {
		return fail("%v", err)
	}

	kind := spec.Paradigm
	switch *par {
	case "auto":
	case "doall":
		kind = paradigm.DOALL
	case "doacross":
		kind = paradigm.DOACROSS
	case "dswp":
		kind = paradigm.DSWP
	case "psdswp":
		kind = paradigm.PSDSWP
	default:
		return fail("unknown paradigm %q", *par)
	}
	if rdoc != nil {
		if kind, err = paradigm.ParseParallel(rdoc.Run.Paradigm); err != nil {
			return fail("checkpoint records %v", err)
		}
	}
	switch *system {
	case "seq", "hmtx", "smtx-min", "smtx-max":
	default:
		return fail("unknown system %q", *system)
	}
	if (*ckptEvery > 0 || *ckptOut != "" || *ckptHalt || rdoc != nil) && *system != "hmtx" {
		return fail("checkpointing requires -system hmtx")
	}
	if (*ckptOut != "" || *ckptHalt) && *ckptEvery <= 0 && rdoc == nil {
		return fail("-ckpt-out and -ckpt-halt need -ckpt-every")
	}

	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = *cores
	cfg.Mem.SLAEnabled = !*noSLA
	cfg.Mem.VIDSpace = vid.Space{Bits: *vidBits}
	cfg.Mem.EagerCommit = *eager
	cfg.Mem.Sanitize = *sanitize

	var sys *engine.System
	if rdoc != nil {
		// Rebuild the checkpointed machine exactly. RestoreRun validates
		// the captured configuration before the sequential reference
		// machine is built from it.
		var err error
		sys, err = ckpt.RestoreRun(rdoc)
		if err != nil {
			return fail("%v", err)
		}
		cfg = rdoc.Run.EngineCfg
	} else {
		sys = engine.New(cfg)
	}
	seqSys := engine.New(cfg)

	// Instrument the system that executes the measured run; the sequential
	// reference run stays untraced unless it is the measured system.
	target := sys
	if *system == "seq" {
		target = seqSys
	}

	var tracer *obs.Tracer
	var txCol *obs.TxCollector
	var traceFile *os.File
	if *trace || *traceOut != "" {
		mask, err := obs.ParseCategories(*traceCats)
		if err != nil {
			return fail("%v", err)
		}
		tracer = obs.NewTracer(mask, 0)
		txCol = obs.NewTxCollector()
		tracer.Attach(txCol)
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				return fail("%v", err)
			}
			tracer.Attach(obs.NewChromeSink(traceFile))
		}
		if *trace {
			tracer.Attach(obs.NewTextSink(stdout))
		}
		target.SetTracer(tracer)
	}

	var reg *obs.Registry
	if *statsText || *statsJSON != "" {
		reg = obs.NewRegistry()
		target.Register(reg)
		target.Mem.Register(reg, "memsys")
	}

	wantProf := *profText || *profOut != "" || *profFolded != "" || *seriesOut != ""
	wantSeries := *seriesOut != ""
	wantConflicts := *conflictsOut != "" || *conflictsDOT != ""
	wantHists := *histOut != ""
	if rdoc != nil {
		// RestoreRun reattached exactly the instruments the checkpoint was
		// taken with (and Register restored the registry's histograms); the
		// output flags must ask for the same set, or the resumed documents
		// could not be byte-identical.
		saved := rdoc.Run.Attached()
		if want := [...]bool{wantProf, wantSeries, wantConflicts, wantHists, reg != nil}; saved != want {
			i := 0
			for saved[i] == want[i] {
				i++
			}
			if saved[i] {
				return fail("checkpoint was taken with the %s attached; pass the matching output flags to resume", instr.Instruments[i])
			}
			return fail("checkpoint was taken without the %s; it cannot be attached mid-run", instr.Instruments[i])
		}
	} else {
		if wantProf {
			// The sampler's validation/commit columns read the profiler's
			// live buckets, so sampling implies profiling (a pure observer:
			// it does not change the simulated execution).
			target.SetProf(prof.New())
		}
		if wantSeries {
			target.SetSeries(metrics.NewSampler(*seriesWindow))
		}
		if wantConflicts {
			target.SetConflicts(metrics.NewRecorder(*cascadeWindow))
		}
		if wantHists {
			target.SetLatHists(metrics.NewLatHists())
		}
	}

	// Sequential reference for the speedup.
	loop := spec.New(*scale)
	loop.Setup(seqSys.Mem)
	seqCycles := paradigm.RunSequential(seqSys, loop)

	var out hmtx.Outcome
	var ckptErr error
	var halted bool
	switch *system {
	case "seq":
		out = hmtx.Outcome{Cycles: seqCycles, Iterations: loop.Iters(), Runs: 1}
	case "hmtx":
		loop = spec.New(*scale)
		opts := hmtx.Options{Every: *ckptEvery}
		if rdoc != nil {
			// Memory state was restored; the paradigm contract (all mutable
			// loop state lives in simulated memory) means no re-Setup.
			opts.Every, opts.Partial = rdoc.Run.Every, rdoc.Run.Partial
		} else {
			loop.Setup(sys.Mem)
		}
		if *ckptOut != "" || *ckptHalt {
			opts.Checkpoint = func(nextIt int, sofar hmtx.Outcome) bool {
				if *ckptOut != "" {
					doc := ckpt.CaptureRun(sys, ckpt.RunState{
						Bench: spec.Name, System: *system, Paradigm: kind.String(),
						Cores: *cores, Scale: *scale, Every: opts.Every,
						EngineCfg: cfg, NextIt: nextIt, Partial: sofar,
					})
					if err := ckpt.WriteFile(*ckptOut, doc); err != nil {
						ckptErr = err
						return true
					}
				}
				halted = *ckptHalt
				return halted
			}
		}
		out = hmtx.RunOpts(sys, loop, kind, *cores, opts)
	case "smtx-min":
		loop = spec.New(*scale)
		loop.Setup(sys.Mem)
		out = smtx.Run(sys, loop, kind, *cores, smtx.MinSet, smtx.DefaultConfig())
	case "smtx-max":
		loop = spec.New(*scale)
		loop.Setup(sys.Mem)
		out = smtx.Run(sys, loop, kind, *cores, smtx.MaxSet, smtx.DefaultConfig())
	}

	if err := tracer.Close(); err != nil {
		return fail("closing trace sinks: %v", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail("closing %s: %v", *traceOut, err)
		}
	}

	if ckptErr != nil {
		return fail("writing checkpoint: %v", ckptErr)
	}
	if halted {
		where := ""
		if *ckptOut != "" {
			where = " -> " + *ckptOut
		}
		fmt.Fprintf(stdout, "checkpoint: halted at iteration %d%s (continue with -resume)\n",
			out.Iterations, where)
		return 0
	}

	fmt.Fprintf(stdout, "benchmark:        %s (%v, %d iterations)\n", spec.Name, kind, out.Iterations)
	fmt.Fprintf(stdout, "system:           %s on %d cores\n", *system, *cores)
	fmt.Fprintf(stdout, "cycles:           %d (sequential: %d)\n", out.Cycles, seqCycles)
	fmt.Fprintf(stdout, "hot-loop speedup: %.2fx\n", float64(seqCycles)/float64(out.Cycles))
	fmt.Fprintf(stdout, "aborts:           %d (recovery runs: %d)\n", out.Aborts, out.Runs)

	if *system != "seq" {
		es, ms := sys.Stats(), sys.Mem.Stats()
		fmt.Fprintf(stdout, "instructions:     %d (%d branches, %d mispredicted)\n",
			es.Instructions, es.Branches, es.Mispredicts)
		if es.Txs > 0 {
			fmt.Fprintf(stdout, "transactions:     %d committed, %.0f spec accesses/tx\n",
				es.Txs, float64(es.SpecAccesses)/float64(es.Txs))
			fmt.Fprintf(stdout, "read/write sets:  %.1f kB / %.1f kB per tx (max combined %.1f kB)\n",
				float64(es.ReadSetBytes/es.Txs)/1024,
				float64(es.WriteSetBytes/es.Txs)/1024,
				float64(es.MaxCombinedBytes)/1024)
		}
		fmt.Fprintf(stdout, "memory system:    %d L1 hits, %d peer transfers, %d L2 hits, %d mem reads\n",
			ms.L1Hits, ms.PeerTransfers, ms.L2Hits, ms.MemReads)
		fmt.Fprintf(stdout, "speculation:      %d spec loads, %d spec stores, %d versions created\n",
			ms.SpecLoads, ms.SpecStores, ms.VersionsCreated)
		fmt.Fprintf(stdout, "SLAs:             %d sent, %d false misspeculations avoided\n",
			ms.SLAsSent, ms.AvoidedAborts)
		fmt.Fprintf(stdout, "VID resets:       %d\n", ms.VIDResets)
	}

	if txCol != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, txCol.Summary().String())
		fmt.Fprintf(stdout, "trace events:     %d recorded (categories: %v)\n", tracer.Count(), tracer.Mask())
	}

	if *statsText {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, reg.Snapshot().Text())
	}

	if *statsJSON != "" {
		tree, err := reg.Snapshot().Nested()
		if err != nil {
			return fail("%v", err)
		}
		doc := statsDoc{
			Schema: "hmtx-run/v1",
			Run: runDoc{
				Bench:      spec.Name,
				System:     *system,
				Paradigm:   kind.String(),
				Cores:      *cores,
				Scale:      *scale,
				Iterations: out.Iterations,
				Cycles:     out.Cycles,
				SeqCycles:  seqCycles,
				Speedup:    float64(seqCycles) / float64(out.Cycles),
				Aborts:     out.Aborts,
				Runs:       out.Runs,
			},
			Stats: tree,
		}
		if err := writeJSON(*statsJSON, doc); err != nil {
			return fail("%v", err)
		}
	}

	if target.Prof().Enabled() {
		pk := kind
		if *system == "seq" {
			pk = paradigm.Sequential
		}
		p := target.Prof().Snapshot(spec.Name, *system, pk.String(), 0)
		if err := p.CheckInvariant(); err != nil {
			return fail("%v", err)
		}
		doc := prof.Doc{Schema: prof.Schema, Scale: *scale, Cores: *cores, Profiles: []prof.Profile{p}}
		if *profText {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, p.Text())
		}
		if *profOut != "" {
			if err := writeJSON(*profOut, doc); err != nil {
				return fail("%v", err)
			}
		}
		if *profFolded != "" {
			var folded bytes.Buffer
			if err := prof.WriteFolded(&folded, doc); err != nil {
				return fail("%v", err)
			}
			if err := os.WriteFile(*profFolded, folded.Bytes(), 0o644); err != nil {
				return fail("%v", err)
			}
		}
	}

	label := spec.Name + "/" + *system

	if target.Series().Enabled() {
		target.FlushSeries()
		sr := target.Series().Snapshot(label)
		fmt.Fprintf(stdout, "time series:      %d samples at window %d -> %s\n",
			len(sr.Cycles), sr.Window, *seriesOut)
		doc := metrics.SeriesDoc{Schema: metrics.SeriesSchema, Scale: *scale, Cores: *cores,
			Series: []metrics.Series{sr}}
		if err := writeJSON(*seriesOut, doc); err != nil {
			return fail("%v", err)
		}
	}

	if target.Conflicts().Enabled() {
		g := target.Conflicts().Snapshot(label)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, g.Text())
		if *conflictsOut != "" {
			doc := metrics.ConflictDoc{Schema: metrics.ConflictSchema, Scale: *scale, Cores: *cores,
				Graphs: []metrics.Graph{g}}
			if err := writeJSON(*conflictsOut, doc); err != nil {
				return fail("%v", err)
			}
		}
		if *conflictsDOT != "" {
			if err := os.WriteFile(*conflictsDOT, []byte(g.DOT()), 0o644); err != nil {
				return fail("%v", err)
			}
		}
	}

	if target.LatHists().Enabled() {
		lh := target.LatHists().Snapshot(label)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, lh.Text())
		doc := metrics.HistDoc{Schema: metrics.HistSchema, Scale: *scale, Cores: *cores,
			Histograms: []metrics.LabeledHists{lh}}
		if err := writeJSON(*histOut, doc); err != nil {
			return fail("%v", err)
		}
	}
	return 0
}
