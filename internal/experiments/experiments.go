// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Table 1 (speculative-execution statistics), Table 2
// (architectural configuration), Table 3 (area, power, energy), Figure 1
// (paradigm timing), Figure 2 (SMTX validation sensitivity), Figure 8
// (hot-loop speedup), and Figure 9 (read/write-set sizes). The cmd/experiments
// binary and the repository's benchmark harness both drive this package.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/paradigm"
	"hmtx/internal/power"
	"hmtx/internal/prof"
	"hmtx/internal/smtx"
	"hmtx/internal/stats"
	"hmtx/internal/workloads"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every benchmark's iteration count (1 = the
	// configuration recorded in EXPERIMENTS.md).
	Scale int
	// Cores is the machine size; the paper evaluates 4.
	Cores int
	// Parallelism is the number of simulations RunAll drives concurrently.
	// Each (benchmark, mode) pair is one unit of work over its own
	// engine.System, so the simulated results are identical at any setting;
	// 1 runs the suite serially as before, 0 means GOMAXPROCS.
	Parallelism int
	// Profile attaches a cycle-attribution profiler to every simulation
	// and fills the BenchResult *Prof fields. Each unit owns its collector,
	// so profiles — like all other results — are identical at any
	// Parallelism.
	Profile bool
	// Metrics attaches the DESIGN.md §15 instruments — the windowed
	// time-series sampler, the conflict recorder, and the latency
	// histograms — to every simulation and fills the BenchResult *Metrics
	// fields. Sampling implies profiling (the validation/commit columns
	// read the profiler's live buckets). Each unit owns its instruments,
	// so the documents are identical at any Parallelism.
	Metrics bool
	// MetricsWindow is the time-series sampling window in simulated cycles
	// (0 = metrics.DefaultWindow).
	MetricsWindow int64
}

// Default returns the evaluation configuration.
func Default() Config { return Config{Scale: 1, Cores: 4, Parallelism: 1} }

func (c Config) engineConfig() engine.Config {
	ec := engine.DefaultConfig()
	ec.Mem.Cores = c.Cores
	return ec
}

// BenchResult holds every measurement taken for one benchmark.
type BenchResult struct {
	Spec workloads.Spec

	SeqCycles int64
	SeqAct    power.Activity

	HMTXOut hmtx.Outcome
	HMTXAct power.Activity
	HMTXEng engine.Stats
	HMTXMem memsys.Stats

	// SMTX results are only present when Spec.HasSMTX.
	SMTXMinOut, SMTXMaxOut hmtx.Outcome
	SMTXMinAct, SMTXMaxAct power.Activity

	// Cycle-attribution profiles, only present when Config.Profile is set
	// (and, for the SMTX pair, when Spec.HasSMTX).
	SeqProf, HMTXProf        *prof.Profile
	SMTXMinProf, SMTXMaxProf *prof.Profile

	// Metric-set snapshots, only present when Config.Metrics is set (and,
	// for the SMTX pair, when Spec.HasSMTX).
	SeqMetrics, HMTXMetrics        *MetricSet
	SMTXMinMetrics, SMTXMaxMetrics *MetricSet
}

// MetricSet bundles one system run's metric snapshots (DESIGN.md §15),
// labelled "benchmark/system".
type MetricSet struct {
	Series    metrics.Series
	Conflicts metrics.Graph
	Hists     metrics.LabeledHists
}

// metricSets returns the result's metric sets in the canonical system order
// (seq, hmtx, smtx-min, smtx-max); absent sets are nil.
func (r *BenchResult) metricSets() []*MetricSet {
	return []*MetricSet{r.SeqMetrics, r.HMTXMetrics, r.SMTXMinMetrics, r.SMTXMaxMetrics}
}

// instrument attaches the profiler to a unit's system when Config.Profile or
// Config.Metrics is set (the sampler reads it), and the metric instruments
// when Config.Metrics is set. The instruments are pure observers: they never
// change the simulated execution.
func instrument(cfg Config, sys *engine.System) {
	if cfg.Profile || cfg.Metrics {
		sys.SetProf(prof.New())
	}
	if !cfg.Metrics {
		return
	}
	sys.SetSeries(metrics.NewSampler(cfg.MetricsWindow))
	sys.SetConflicts(metrics.NewRecorder(0))
	sys.SetLatHists(metrics.NewLatHists())
}

// observe captures a unit's profile and metric set; each is nil when its
// instruments are off.
func observe(cfg Config, sys *engine.System, r *BenchResult, system string, kind paradigm.Kind) (*prof.Profile, *MetricSet) {
	var p *prof.Profile
	if sys.Prof().Enabled() {
		snap := sys.Prof().Snapshot(r.Spec.Name, system, kind.String(), 0)
		p = &snap
	}
	if !cfg.Metrics {
		return p, nil
	}
	sys.FlushSeries()
	label := r.Spec.Name + "/" + system
	return p, &MetricSet{
		Series:    sys.Series().Snapshot(label),
		Conflicts: sys.Conflicts().Snapshot(label),
		Hists:     sys.LatHists().Snapshot(label),
	}
}

// HotSpeedupHMTX returns the hot-loop speedup of HMTX over sequential.
func (r *BenchResult) HotSpeedupHMTX() float64 {
	return float64(r.SeqCycles) / float64(r.HMTXOut.Cycles)
}

// HotSpeedupSMTX returns the hot-loop speedup of SMTX in the given mode.
func (r *BenchResult) HotSpeedupSMTX(mode smtx.Mode) float64 {
	out := r.SMTXMinOut
	if mode == smtx.MaxSet {
		out = r.SMTXMaxOut
	}
	return float64(r.SeqCycles) / float64(out.Cycles)
}

// WholeProgram converts a hot-loop speedup to a whole-program speedup using
// the benchmark's hot-loop execution-time share (Table 1) and Amdahl's law.
func (r *BenchResult) WholeProgram(hotSpeedup float64) float64 {
	h := r.Spec.HotLoopPct / 100
	return 1 / ((1 - h) + h/hotSpeedup)
}

func activity(cycles int64, eng *engine.Stats, mem *memsys.Stats) power.Activity {
	return power.Activity{
		Cycles:       cycles,
		Instructions: eng.Instructions,
		L1Accesses:   mem.L1Hits + mem.BusMessages,
		L2Accesses:   mem.L2Hits + mem.MemReads,
		MemAccesses:  mem.MemReads + mem.MemWrites,
		BusMessages:  mem.BusMessages,
	}
}

// runSeq measures the sequential baseline, writing only the Seq* fields.
func runSeq(cfg Config, r *BenchResult) {
	sys := engine.New(cfg.engineConfig())
	instrument(cfg, sys)
	loop := r.Spec.New(cfg.Scale)
	loop.Setup(sys.Mem)
	r.SeqCycles = paradigm.RunSequential(sys, loop)
	r.SeqAct = activity(r.SeqCycles, sys.Stats(), sys.Mem.Stats())
	r.SeqProf, r.SeqMetrics = observe(cfg, sys, r, "seq", paradigm.Sequential)
}

// runHMTX measures HMTX with maximal validation — every load and store inside
// every transaction is validated (§6.1) — writing only the HMTX* fields.
func runHMTX(cfg Config, r *BenchResult) {
	sys := engine.New(cfg.engineConfig())
	instrument(cfg, sys)
	loop := r.Spec.New(cfg.Scale)
	loop.Setup(sys.Mem)
	r.HMTXOut = hmtx.Run(sys, loop, r.Spec.Paradigm, cfg.Cores)
	r.HMTXEng = *sys.Stats()
	r.HMTXMem = *sys.Mem.Stats()
	r.HMTXAct = activity(r.HMTXOut.Cycles, sys.Stats(), sys.Mem.Stats())
	r.HMTXProf, r.HMTXMetrics = observe(cfg, sys, r, "hmtx", r.Spec.Paradigm)
}

// runSMTX measures SMTX with the given read/write-set mode, writing only the
// corresponding SMTX* fields.
func runSMTX(cfg Config, r *BenchResult, mode smtx.Mode) {
	sys := engine.New(cfg.engineConfig())
	instrument(cfg, sys)
	loop := r.Spec.New(cfg.Scale)
	loop.Setup(sys.Mem)
	out := smtx.Run(sys, loop, r.Spec.Paradigm, cfg.Cores, mode, smtx.DefaultConfig())
	act := activity(out.Cycles, sys.Stats(), sys.Mem.Stats())
	if mode == smtx.MaxSet {
		r.SMTXMaxOut, r.SMTXMaxAct = out, act
		r.SMTXMaxProf, r.SMTXMaxMetrics = observe(cfg, sys, r, "smtx-max", r.Spec.Paradigm)
	} else {
		r.SMTXMinOut, r.SMTXMinAct = out, act
		r.SMTXMinProf, r.SMTXMinMetrics = observe(cfg, sys, r, "smtx-min", r.Spec.Paradigm)
	}
}

// RunBench measures one benchmark: sequential, HMTX with maximal validation,
// and (when available) SMTX with minimal and maximal read/write sets.
func RunBench(cfg Config, spec workloads.Spec) BenchResult {
	r := BenchResult{Spec: spec}
	runSeq(cfg, &r)
	runHMTX(cfg, &r)
	if spec.HasSMTX {
		runSMTX(cfg, &r, smtx.MinSet)
		runSMTX(cfg, &r, smtx.MaxSet)
	}
	return r
}

// unit is one independently runnable simulation: a (benchmark, mode) pair.
// Each unit builds its own engine.System and writes a disjoint group of
// fields of its BenchResult, so units never share mutable state.
type unit struct {
	idx  int // index into the result slice
	mode string
	run  func(*BenchResult)
}

// units expands specs into the flat work list, in spec order.
func units(cfg Config, specs []workloads.Spec) []unit {
	var us []unit
	for i, spec := range specs {
		i := i
		us = append(us,
			unit{i, "seq", func(r *BenchResult) { runSeq(cfg, r) }},
			unit{i, "hmtx", func(r *BenchResult) { runHMTX(cfg, r) }})
		if spec.HasSMTX {
			us = append(us,
				unit{i, "smtx-min", func(r *BenchResult) { runSMTX(cfg, r, smtx.MinSet) }},
				unit{i, "smtx-max", func(r *BenchResult) { runSMTX(cfg, r, smtx.MaxSet) }})
		}
	}
	return us
}

// RunSpecs measures the given benchmarks, writing progress lines to w (may be
// nil). With cfg.Parallelism != 1 the (benchmark, mode) units run concurrently
// on a worker pool; because every unit owns its engine.System and writes a
// disjoint field group, and results live at fixed spec-order indices, the
// returned slice — and hence BuildDoc's JSON — is identical at any
// parallelism (DESIGN.md §11).
func RunSpecs(cfg Config, specs []workloads.Spec, w io.Writer) []BenchResult {
	out := make([]BenchResult, len(specs))
	for i := range out {
		out[i].Spec = specs[i]
	}

	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p == 1 {
		for i, spec := range specs {
			if w != nil {
				fmt.Fprintf(w, "running %-12s (%v, scale %d)...\n", spec.Name, spec.Paradigm, cfg.Scale)
			}
			runSeq(cfg, &out[i])
			runHMTX(cfg, &out[i])
			if spec.HasSMTX {
				runSMTX(cfg, &out[i], smtx.MinSet)
				runSMTX(cfg, &out[i], smtx.MaxSet)
			}
		}
		return out
	}

	us := units(cfg, specs)
	if p > len(us) {
		p = len(us)
	}
	var next atomic.Int64
	var mu sync.Mutex // serialises progress lines
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(us) {
					return
				}
				u := us[n]
				if w != nil {
					spec := out[u.idx].Spec
					mu.Lock()
					fmt.Fprintf(w, "running %-12s %-8s (%v, scale %d)...\n", spec.Name, u.mode, spec.Paradigm, cfg.Scale)
					mu.Unlock()
				}
				u.run(&out[u.idx])
			}
		}()
	}
	wg.Wait()
	return out
}

// RunAll measures every benchmark, writing progress lines to w (may be nil).
func RunAll(cfg Config, w io.Writer) []BenchResult {
	return RunSpecs(cfg, workloads.All(), w)
}

// Table1 renders the per-benchmark speculative-execution statistics
// (paper Table 1).
func Table1(results []BenchResult) string {
	var t stats.Table
	t.Add("Benchmark", "Paradigm", "HotLoop%", "SpecAcc/TX", "SLAAvoid/TX", "%LoadsNeedSLA", "%Branches", "Mispred%")
	for i := range results {
		r := &results[i]
		txs := float64(r.HMTXEng.Txs)
		specLoads := float64(r.HMTXMem.SpecLoads)
		branches := float64(r.HMTXEng.Branches)
		insts := float64(r.HMTXEng.Instructions)
		t.AddF(r.Spec.Name, r.Spec.Paradigm, r.Spec.HotLoopPct,
			fmt.Sprintf("%.0f", float64(r.HMTXEng.SpecAccesses)/txs),
			fmt.Sprintf("%.3f", float64(r.HMTXEng.AvoidedAborts)/txs),
			stats.Pct(float64(r.HMTXMem.SLAsSent)/specLoads, 2),
			stats.Pct(branches/insts, 1),
			stats.Pct(float64(r.HMTXEng.Mispredicts)/branches, 2))
	}
	return "Table 1: Statistics from simulated speculative execution using HMTX\n" + t.String()
}

// Table2 renders the architectural configuration (paper Table 2).
func Table2(cfg Config) string {
	mc := cfg.engineConfig().Mem
	var t stats.Table
	t.Add("Feature", "Parameter")
	t.AddF("Cores", mc.Cores)
	t.AddF("Clock Speed", "2.0 GHz")
	t.AddF("L1 D Cache", fmt.Sprintf("%dKB, %d-way, %d cycle latency", mc.L1Size>>10, mc.L1Ways, mc.L1Lat))
	t.AddF("Shared L2 Cache", fmt.Sprintf("%dMB, %d-way, %d cycle latency", mc.L2Size>>20, mc.L2Ways, mc.L2Lat))
	t.AddF("Cache Line Size", fmt.Sprintf("%dB", memsys.LineSize))
	t.AddF("Base Coherence Protocol", "MOESI")
	t.AddF("Memory Latency", fmt.Sprintf("%d cycles", mc.MemLat))
	t.AddF("VID Width", fmt.Sprintf("%d bits", mc.VIDSpace.Bits))
	return "Table 2: Architectural configuration\n" + t.String()
}

// Fig2 renders the SMTX whole-program speedup comparison with minimal vs
// substantial read/write sets (paper Figure 2).
func Fig2(results []BenchResult) string {
	var t stats.Table
	t.Add("Benchmark", "SMTX min R/W (whole prog)", "SMTX max R/W (whole prog)")
	var mins, maxs []float64
	for i := range results {
		r := &results[i]
		if !r.Spec.HasSMTX {
			continue
		}
		mn := r.WholeProgram(r.HotSpeedupSMTX(smtx.MinSet))
		mx := r.WholeProgram(r.HotSpeedupSMTX(smtx.MaxSet))
		mins, maxs = append(mins, mn), append(maxs, mx)
		t.AddF(r.Spec.Name, fmt.Sprintf("%.2fx", mn), fmt.Sprintf("%.2fx", mx))
	}
	t.AddF("Geomean", fmt.Sprintf("%.2fx", stats.Geomean(mins)), fmt.Sprintf("%.2fx", stats.Geomean(maxs)))
	return "Figure 2: SMTX whole-program speedup, minimal vs substantial R/W set\n" + t.String()
}

// Fig8 renders the hot-loop speedups over sequential execution on 4 cores
// (paper Figure 8): SMTX with minimal sets vs HMTX with maximal sets.
func Fig8(results []BenchResult) string {
	var t stats.Table
	t.Add("Benchmark", "SMTX min R/W", "HMTX max R/W")
	var hAll, hComp, sComp []float64
	for i := range results {
		r := &results[i]
		h := r.HotSpeedupHMTX()
		hAll = append(hAll, h)
		sCell := "-"
		if r.Spec.HasSMTX {
			s := r.HotSpeedupSMTX(smtx.MinSet)
			sComp = append(sComp, s)
			hComp = append(hComp, h)
			sCell = fmt.Sprintf("%.2fx", s)
		}
		t.AddF(r.Spec.Name, sCell, fmt.Sprintf("%.2fx", h))
	}
	t.AddF("Geomean (Comp.)", fmt.Sprintf("%.2fx", stats.Geomean(sComp)), fmt.Sprintf("%.2fx", stats.Geomean(hComp)))
	t.AddF("Geomean (All)", "-", fmt.Sprintf("%.2fx", stats.Geomean(hAll)))
	return "Figure 8: Hot loop speedup over sequential using 4 cores\n" + t.String()
}

// Fig9 renders the average read/write-set sizes per transaction
// (paper Figure 9).
func Fig9(results []BenchResult) string {
	var t stats.Table
	t.Add("Benchmark", "Read Set", "Write Set", "Combined", "Max Combined")
	var combined []float64
	for i := range results {
		r := &results[i]
		txs := r.HMTXEng.Txs
		if txs == 0 {
			continue
		}
		rb := r.HMTXEng.ReadSetBytes / txs
		wb := r.HMTXEng.WriteSetBytes / txs
		combined = append(combined, float64(rb+wb)/1024)
		t.AddF(r.Spec.Name, stats.KB(rb), stats.KB(wb), stats.KB(rb+wb), stats.KB(r.HMTXEng.MaxCombinedBytes))
	}
	t.AddF("Geomean", "", "", fmt.Sprintf("%.1f kB", stats.Geomean(combined)), "")
	return "Figure 9: Average read/write set size per transaction\n" + t.String()
}

// Table3 renders the area, power and energy comparison (paper Table 3).
func Table3(cfg Config, results []BenchResult) string {
	m := power.Default22nm()
	mc := cfg.engineConfig().Mem
	baseArea := m.Area(mc, false)
	hmtxArea := m.Area(mc, true)

	type row struct {
		hw, model string
		area      power.Area
		hmtxHW    bool
		pick      func(*BenchResult) (power.Activity, bool)
	}
	seqAct := func(r *BenchResult) (power.Activity, bool) { return r.SeqAct, true }
	seqComp := func(r *BenchResult) (power.Activity, bool) { return r.SeqAct, r.Spec.HasSMTX }
	smtxMin := func(r *BenchResult) (power.Activity, bool) { return r.SMTXMinAct, r.Spec.HasSMTX }
	hmtxAll := func(r *BenchResult) (power.Activity, bool) { return r.HMTXAct, true }
	hmtxComp := func(r *BenchResult) (power.Activity, bool) { return r.HMTXAct, r.Spec.HasSMTX }

	rows := []row{
		{"Commodity", "Sequential (All)", baseArea, false, seqAct},
		{"Commodity", "Sequential (Comp.)", baseArea, false, seqComp},
		{"Commodity", "SMTX, Min R/W", baseArea, false, smtxMin},
		{"Commodity+HMTX", "Sequential (All)", hmtxArea, true, seqAct},
		{"Commodity+HMTX", "Sequential (Comp.)", hmtxArea, true, seqComp},
		{"Commodity+HMTX", "SMTX, Min R/W", hmtxArea, true, smtxMin},
		{"Commodity+HMTX", "HMTX, Max R/W (All)", hmtxArea, true, hmtxAll},
		{"Commodity+HMTX", "HMTX, Max R/W (Comp.)", hmtxArea, true, hmtxComp},
	}

	var t stats.Table
	t.Add("Hardware", "Exec Model", "Area (mm2)", "Leakage (W)", "Geomean Dyn (W)", "Geomean Energy (J)")
	for _, rw := range rows {
		var pows, engs []float64
		for i := range results {
			act, ok := rw.pick(&results[i])
			if !ok {
				continue
			}
			pows = append(pows, m.DynamicPower(act, rw.hmtxHW))
			engs = append(engs, m.TotalEnergy(act, rw.area, rw.hmtxHW))
		}
		t.AddF(rw.hw, rw.model,
			fmt.Sprintf("%.1f", rw.area.Total()),
			fmt.Sprintf("%.3f", m.Leakage(rw.area)),
			fmt.Sprintf("%.2f", stats.Geomean(pows)),
			fmt.Sprintf("%.4f", stats.Geomean(engs)))
	}
	return "Table 3: Area, power, and energy on the simulated 4-core machine\n" + t.String()
}
