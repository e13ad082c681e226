package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
	"hmtx/internal/workloads"
)

// metricDef declares one printed metric.
type metricDef struct{ name, unit string }

// layerDefs lists every per-layer metric a traced run prints, whatever the
// workload. A layer the workload does not exercise reads 0.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"engine.new_ms", "ms"}, {"engine.new_alloc_mb", "MB"}, {"engine.new_share", "ratio"},
		{"workloads.setup_ms", "ms"},
	}
	for _, spec := range workloads.All() {
		for _, system := range paperSystems(spec) {
			defs = append(defs, metricDef{"run_ms." + spec.Name + "." + system, "ms"})
		}
	}
	defs = append(defs,
		metricDef{"engine.ns_per_op", "ns"}, metricDef{"engine.env_calls", "count"},
		metricDef{"engine.handoff_ns", "ns"}, metricDef{"engine.l1load_ns", "ns"},
		metricDef{"engine.domains2_ratio", "ratio"}, metricDef{"engine.domains1_ms", "ms"},
		metricDef{"memsys.l1_hit_ns", "ns"}, metricDef{"memsys.peer_ns", "ns"},
		metricDef{"memsys.l2_hit_ns", "ns"}, metricDef{"memsys.mem_read_ns", "ns"},
		metricDef{"memsys.settle_ns", "ns"},
	)
	for _, n := range countNames {
		defs = append(defs, metricDef{n, "count"})
	}
	for _, n := range overheadInstruments {
		defs = append(defs, metricDef{"instr.overhead_x." + n, "ratio"})
	}
	defs = append(defs, metricDef{"instr.bare_ms", "ms"})
	for _, n := range instrumentNames {
		defs = append(defs, metricDef{"instr.snapshot_ms." + n, "ms"})
	}
	return append(defs,
		metricDef{"metrics.series_rows", "count"}, metricDef{"memsys.spec_occupancy_us", "us"},
		metricDef{"ckpt.capture_ms", "ms"}, metricDef{"ckpt.write_ms", "ms"},
		metricDef{"ckpt.read_ms", "ms"}, metricDef{"ckpt.restore_ms", "ms"},
		metricDef{"ckpt.bytes", "bytes"}, metricDef{"memsys.exact_ms", "ms"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace_overhead_pct", "%"}, metricDef{"traced_wall_s", "s"},
		metricDef{"untraced_wall_s", "s"},
	)
}

// countNames are the work counts recorded where each run call returns.
var countNames = []string{
	"engine.instructions", "engine.txs", "engine.mispredicts", "engine.commit_stall_cycles",
	"memsys.l1_hits", "memsys.peer_transfers", "memsys.l2_hits", "memsys.mem_reads",
	"memsys.bus_messages", "memsys.versions_created", "memsys.commits", "memsys.aborts",
}

// spanMetrics maps span names to the per-layer millisecond metric that sums
// them; run-call spans go to run_ms by unit instead.
var spanMetrics = map[string]string{
	"engine.New":         "engine.new_ms",
	"Loop.Setup":         "workloads.setup_ms",
	"ckpt.CaptureRun":    "ckpt.capture_ms",
	"ckpt.Write":         "ckpt.write_ms",
	"ckpt.Read":          "ckpt.read_ms",
	"ckpt.RestoreRun":    "ckpt.restore_ms",
	"snapshot.prof":      "instr.snapshot_ms.prof",
	"snapshot.series":    "instr.snapshot_ms.series",
	"snapshot.conflicts": "instr.snapshot_ms.conflicts",
	"snapshot.hist":      "instr.snapshot_ms.hist",
}

var runSpans = map[string]bool{
	"paradigm.RunSequential": true, "hmtx.RunOpts": true, "smtx.Run": true,
}

// traced alternates untraced and traced passes for the run's budget, then
// runs the layer probes, writes the spans to path and returns the per-layer
// metrics, each the median over passes.
func (b *bench) traced(units []unit, budget time.Duration, path string) (map[string]metric, error) {
	tr := newTracer()
	var plain, withTrace []float64
	perPass := map[string][]float64{}
	for t0 := time.Now(); len(withTrace) == 0 || time.Since(t0) < budget; {
		plain = append(plain, b.pass(units).wall.Seconds())
		b.tr = tr
		s0, c0 := tr.mark()
		ps := b.pass(units)
		b.tr = nil
		for k, v := range tr.layers(s0, c0, ps) {
			perPass[k] = append(perPass[k], v)
		}
		withTrace = append(withTrace, ps.wall.Seconds())
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	vals := map[string]float64{}
	for k, v := range perPass {
		vals[k] = median(v)
	}
	for k, v := range b.probes() {
		vals[k] = v
	}
	vals["traced_wall_s"] = median(withTrace)
	vals["untraced_wall_s"] = median(plain)
	vals["trace_overhead_pct"] = 100 * (median(withTrace)/median(plain) - 1)

	ms := map[string]metric{}
	for _, d := range layerDefs() {
		ms[d.name] = metric{vals[d.name], d.unit}
	}
	return ms, nil
}

// layers aggregates the spans and counts one traced pass recorded.
func (t *tracer) layers(s0, c0 int, ps passStats) map[string]float64 {
	v := map[string]float64{}
	roots := map[int]string{}
	var runNs float64
	for _, s := range t.spans[s0:] {
		ms := float64(s.dur()) / 1e6
		switch {
		case s.Parent < 0:
			roots[s.Unit] = s.Name
		case spanMetrics[s.Name] != "":
			v[spanMetrics[s.Name]] += ms
			if s.Name == "engine.New" {
				v["engine.new_alloc_mb"] += float64(s.Alloc) / 1e6
			}
		case runSpans[s.Name]:
			v["run_ms."+strings.ReplaceAll(roots[s.Unit], "/", ".")] += ms
		case s.Name == "System.Run":
			runNs += float64(s.dur())
		}
	}
	for _, c := range t.counts[c0:] {
		v[c.Name] += float64(c.Value)
	}
	if calls := v["engine.env_calls"]; calls > 0 {
		v["engine.ns_per_op"] = runNs / calls
	}
	v["engine.new_share"] = v["engine.new_ms"] / 1e3 / ps.wall.Seconds()
	v["runtime.gc_cycles"] = float64(ps.gcCycles)
	v["runtime.gc_pause_ms"] = float64(ps.gcPause) / 1e6
	return v
}

// ---- probes ---------------------------------------------------------------

// overheadInstruments are switched on one at a time against the bare unit.
var overheadInstruments = []string{"prof", "series", "conflicts", "hist", "trace", "sanitize"}

// instrKernel is the kernel the instrument probes run under hmtx.
const instrKernel = "164.gzip"

// probeReps is how many times each micro-probe repeats; it reports the
// median.
const probeReps = 3

// probes measures the layers directly: engine handoff and dispatch,
// memsys access classes, the Domains 2 scheduler, instrument overheads and
// the exact hierarchy encoding. Probe units are checked like any unit.
func (b *bench) probes() map[string]float64 {
	v := map[string]float64{}
	v["engine.handoff_ns"] = medianOf(func() float64 { return engineProbe(false) })
	v["engine.l1load_ns"] = medianOf(func() float64 { return engineProbe(true) })
	for _, p := range memsysProbes {
		v[p.metric] = medianOf(p.time)
	}
	golden := b.golden
	b.golden = nil
	defer func() { b.golden = golden }()

	b.domainsProbe(v)

	sys := b.instrumentProbe(v)
	if sys != nil {
		v["memsys.exact_ms"] = medianOf(func() float64 {
			t0 := time.Now()
			sys.Mem.AppendExact(nil)
			return float64(time.Since(t0)) / 1e6
		})
		v["memsys.spec_occupancy_us"] = medianOf(func() float64 {
			t0 := time.Now()
			sys.Mem.SpecOccupancy()
			return float64(time.Since(t0)) / 1e3
		})
	}
	return v
}

// domainsProbe times one manycore unit under the serial scheduler and under
// Domains 2, whose records must match.
func (b *bench) domainsProbe(v map[string]float64) {
	// The parallel scheduler needs a P per domain; the rest of the run
	// keeps one (see run).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))
	in := genManycore(b.seed, 0)
	var base Record
	for _, d := range []int{1, 2} {
		t0 := time.Now()
		rec, err := b.runUnit(unit{fmt.Sprintf("manycore/0/domains=%d", d), func(b *bench) (Record, error) {
			return b.manycoreUnit(in, d)
		}})
		ms := float64(time.Since(t0)) / 1e6
		if d == 1 {
			base = rec
			v["engine.domains1_ms"] = ms
		} else if err == nil {
			v["engine.domains2_ratio"] = ms / v["engine.domains1_ms"]
			b.check("manycore/0/domains=2", diffRecords(base, rec, "the serial scheduler"))
		}
	}
}

// instrumentProbe runs instrKernel under hmtx bare and with each instrument
// alone, in back-to-back pairs so host drift cancels; an overhead is the
// median of its pairs' ratios. Each instrumented record must equal its bare
// one. It returns a bare run's system for the hierarchy probes.
func (b *bench) instrumentProbe(v map[string]float64) *engine.System {
	spec, err := workloads.ByName(instrKernel)
	if err != nil {
		panic(err)
	}
	timed := func(inst string) (Record, *engine.System, float64, error) {
		var sys *engine.System
		t0 := time.Now()
		rec, err := b.runUnit(unit{instrKernel + "/" + inst, func(b *bench) (Record, error) {
			rec, s := instrUnit(b.seed, spec, inst)
			sys = s
			return rec, nil
		}})
		return rec, sys, float64(time.Since(t0)) / 1e6, err
	}
	var bareMs []float64
	var last *engine.System
	for _, inst := range overheadInstruments {
		var ratios []float64
		for i := 0; i < probeReps; i++ {
			bare, sys, ms, err1 := timed("")
			rec, _, ims, err2 := timed(inst)
			bareMs, last = append(bareMs, ms), sys
			ratios = append(ratios, ims/ms)
			if err1 == nil && err2 == nil {
				b.check(instrKernel+"/"+inst, diffRecords(bare, rec, "the bare run"))
			}
		}
		v["instr.overhead_x."+inst] = median(ratios)
	}
	v["instr.bare_ms"] = median(bareMs)
	return last
}

// check counts a failure found after a unit's own checks passed.
func (b *bench) check(key string, err error) {
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "simbench: unit %s failed: %v\n", key, err)
	}
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// instrUnit runs spec under hmtx with one instrument switched on ("" for
// none) and returns its record without instrument digests.
func instrUnit(seed int64, spec workloads.Spec, inst string) (Record, *engine.System) {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = paperCores
	cfg.Seed = seed
	cfg.Mem.Sanitize = inst == "sanitize"
	sys := engine.New(cfg)
	switch inst {
	case "prof":
		sys.SetProf(prof.New())
	case "series":
		sys.SetSeries(metrics.NewSampler(0))
	case "conflicts":
		sys.SetConflicts(metrics.NewRecorder(0))
	case "hist":
		sys.SetLatHists(metrics.NewLatHists())
	case "trace":
		sys.SetTracer(obs.NewTracer(obs.CatAll, 0))
	}
	loop := spec.New(1)
	loop.Setup(sys.Mem)
	out := hmtx.RunOpts(sys, loop, spec.Paradigm, paperCores, hmtx.Options{})
	if inst == "series" {
		sys.FlushSeries()
	}
	return outcomeRecord(out, sys), sys
}

// engineProbeOps is the number of Env calls one engine probe times.
const engineProbeOps = 200_000

// engineProbe times a one-core program issuing Compute(1), or loading one
// warm line, and returns host ns per call.
func engineProbe(load bool) float64 {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = 1
	sys := engine.New(cfg)
	const addr = memsys.Addr(0x40000)
	t0 := time.Now()
	sys.Run([]engine.Program{func(e *engine.Env) {
		e.Load(addr)
		for i := 0; i < engineProbeOps; i++ {
			if load {
				e.Load(addr)
			} else {
				e.Compute(1)
			}
		}
	}})
	return float64(time.Since(t0)) / engineProbeOps
}

// memsysProbeOps is the number of accesses one memsys probe times.
const memsysProbeOps = 100_000

// memsysProbe times one access class through direct Hierarchy calls. prime
// builds the hierarchy and returns the access to time; every timed access
// must add one to the Stats counter class reads.
type memsysProbe struct {
	metric string
	prime  func() (*memsys.Hierarchy, func(i int))
	class  func(*memsys.Stats) uint64
}

var memsysProbes = []memsysProbe{
	{"memsys.l1_hit_ns", func() (*memsys.Hierarchy, func(int)) {
		h := probeHierarchy()
		h.Load(0, 0x40000, vid.NonSpec)
		return h, func(int) { h.Load(0, 0x40000, vid.NonSpec) }
	}, func(s *memsys.Stats) uint64 { return s.L1Hits }},
	// Alternating stores migrate one dirty line between two L1s.
	{"memsys.peer_ns", func() (*memsys.Hierarchy, func(int)) {
		h := probeHierarchy()
		h.Store(0, 0x40000, 1, vid.NonSpec)
		return h, func(i int) { h.Store((i+1)&1, 0x40000, uint64(i), vid.NonSpec) }
	}, func(s *memsys.Stats) uint64 { return s.PeerTransfers }},
	// L1Ways+1 lines that share an L1 set but not an L2 set, loaded round
	// robin: each load misses the L1 and hits the L2.
	{"memsys.l2_hit_ns", func() (*memsys.Hierarchy, func(int)) {
		h := probeHierarchy()
		cfg := h.Config()
		stride := memsys.Addr(cfg.L1Size / cfg.L1Ways)
		n := cfg.L1Ways + 1
		for i := 0; i < n; i++ {
			h.Load(0, memsys.Addr(i)*stride, vid.NonSpec)
		}
		return h, func(i int) { h.Load(0, memsys.Addr(i%n)*stride, vid.NonSpec) }
	}, func(s *memsys.Stats) uint64 { return s.L2Hits }},
	// Lines never touched before: each load reads memory.
	{"memsys.mem_read_ns", func() (*memsys.Hierarchy, func(int)) {
		h := probeHierarchy()
		return h, func(i int) { h.Load(0, memsys.Addr(i)*memsys.LineSize, vid.NonSpec) }
	}, func(s *memsys.Stats) uint64 { return s.MemReads }},
	// The lazy-commit settle path: a speculative version, its commit, and
	// the load that settles it.
	{"memsys.settle_ns", func() (*memsys.Hierarchy, func(int)) {
		h := probeHierarchy()
		max := uint64(h.Config().VIDSpace.Max())
		return h, func(i int) {
			v := vid.V(uint64(i)%max + 1)
			if v == 1 && i > 0 {
				h.VIDReset()
			}
			h.Store(0, 0x40000, uint64(i), v)
			h.Commit(v)
			h.Load(0, 0x40000, vid.NonSpec)
		}
	}, func(s *memsys.Stats) uint64 { return s.Commits }},
}

func probeHierarchy() *memsys.Hierarchy {
	cfg := memsys.DefaultConfig()
	cfg.Cores = paperCores
	return memsys.New(cfg)
}

// time returns host ns per access.
func (p memsysProbe) time() float64 {
	_, op := p.prime()
	t0 := time.Now()
	for i := 0; i < memsysProbeOps; i++ {
		op(i)
	}
	return float64(time.Since(t0)) / memsysProbeOps
}
