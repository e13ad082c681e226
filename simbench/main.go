// Command simbench is the repository's same-host benchmark of the HMTX
// simulator. It drives the simulator's layers through their public
// functions, checks every simulated output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON line.
// README.md explains the workloads and metrics.
//
//	go run . -workload paper-suite -seed 1 -seconds 10 -trace 0
//	go run . -record golden    # rewrite the golden files at the default seed
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start for the first set-up.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is a named list of units plus the set-up its oracle needs.
type workload struct {
	name  string
	units func(seed int64) []unit
	// refs, if set, lists units whose records the timed units are checked
	// against; they run during set-up.
	refs func() []unit
}

var allWorkloads = []workload{
	{name: "paper-suite", units: func(int64) []unit { return paperUnits() }},
	{name: "manycore", units: manycoreUnits},
	{name: "observed", units: func(int64) []unit { return observedUnits() }, refs: observedRefs},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// bench is one process's benchmark state.
type bench struct {
	seed   int64
	golden map[string]Record // nil unless the seed is the default
	tr     *tracer           // nil with tracing off
	log    io.Writer         // failure messages

	seqImg map[string]image  // paper-suite: the pass's sequential images
	refs   map[string]Record // observed: uninterrupted reference runs

	// corrupt, when set, rewrites checkpoint bytes between Write and Read.
	corrupt func([]byte) []byte

	attempted, failed int
	cycles            int64 // simulated cycles since the last pass began
}

func newBench(seed int64, log io.Writer) *bench {
	if log == nil {
		log = io.Discard
	}
	return &bench{seed: seed, log: log, seqImg: map[string]image{}, refs: map[string]Record{}}
}

// prepare generates the workload's inputs from the seed, loads the golden
// records at the default seed, and runs the oracle's reference units.
func (b *bench) prepare(w workload) ([]unit, error) {
	units := w.units(b.seed)
	b.golden = nil
	if b.seed == defaultSeed {
		g, err := loadGolden(w.name)
		if err != nil {
			return nil, err
		}
		b.golden = g
	}
	if w.refs != nil {
		for _, u := range w.refs() {
			b.runUnit(u) // a failed reference fails the units checked against it
		}
	}
	return units, nil
}

// runUnit runs one unit with its output checks and counts the outcome. A
// unit fails when it panics, its oracle rejects it, or, at the default
// seed, its record drifts from the golden one.
func (b *bench) runUnit(u unit) (rec Record, err error) {
	b.attempted++
	root := b.tr.unit(u.key)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			b.tr.abandon()
		} else {
			b.tr.end(root)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "simbench: unit %s failed: %v\n", u.key, err)
		}
	}()
	rec, err = u.run(b)
	b.cycles += rec.Cycles
	if err == nil && b.golden != nil {
		want, ok := b.golden[u.key]
		if !ok {
			return rec, errors.New("no golden record")
		}
		err = diffRecords(want, rec, "the golden record")
	}
	return rec, err
}

// passStats are the host costs of one pass over a workload's units.
type passStats struct {
	wall, cpu time.Duration
	alloc     uint64
	cycles    int64
	gcCycles  uint32
	gcPause   uint64 // ns
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass runs every unit once, back to back, from one goroutine.
func (b *bench) pass(units []unit) passStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	b.cycles = 0
	clear(b.seqImg)
	for _, u := range units {
		b.runUnit(u)
	}
	ps := passStats{wall: time.Since(t0), cpu: cpuTime() - c0, cycles: b.cycles}
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	return ps
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "paper-suite", "workload: paper-suite, manycore or observed")
	seed := fs.Int64("seed", defaultSeed, "input seed; the golden files pin the default")
	seconds := fs.Int("seconds", 10, "measure for at least this many seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	traceOut := fs.String("trace-out", ".bench_build/simbench-trace", "directory the traced run writes its spans to")
	recordDir := fs.String("record", "", "rewrite the golden files in this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordDir != "" {
		if err := record(*recordDir); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "simbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *traceFlag)
		return 2
	}
	// The simulator runs one program goroutine at a time, handing off to
	// the scheduler goroutine over channels. With a second P the runtime
	// wakes another thread to steal each readied goroutine, and wall time
	// then follows the host's thread wake-up latency: manycore passes
	// spread from 2.6 to 4.1 s on a 2-CPU host, against 2.49 to 2.51 s
	// with one P. The load is one goroutine, so one P measures it steadily.
	runtime.GOMAXPROCS(1)

	b := newBench(*seed, stderr)
	// Set up several times: setup_s is the median. Each set-up generates
	// the inputs, loads the golden records and runs one untimed warm-up
	// unit; the first also carries the process start.
	var setups []float64
	var units []unit
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		units, err = b.prepare(w)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		clear(b.seqImg)
		b.runUnit(units[0])
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := time.Duration(*seconds) * time.Second
	var ms map[string]metric
	if *traceFlag == 0 {
		var passes []passStats
		for t0 := time.Now(); len(passes) == 0 || time.Since(t0) < budget; {
			passes = append(passes, b.pass(units))
		}
		ms = endToEnd(passes, median(setups))
		fmt.Fprintf(stdout, "simbench %s seed %d: %d passes of %d units, wall_s", w.name, *seed, len(passes), len(units))
		for _, p := range passes {
			fmt.Fprintf(stdout, " %.3f", p.wall.Seconds())
		}
		fmt.Fprintln(stdout)
	} else {
		path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if ms, err = b.traced(units, budget, path); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "error_rate %g (%d of %d units failed)\n", errorRate(b), b.failed, b.attempted)
	printHuman(stdout, ms)
	buf, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

func errorRate(b *bench) float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

func printHuman(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// endToEnd reduces the passes to the end-to-end metrics, each the median
// over passes.
func endToEnd(passes []passStats, setup float64) map[string]metric {
	var wall, cpu, alloc, rate []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		rate = append(rate, float64(p.cycles)/1e6/p.wall.Seconds())
	}
	return map[string]metric{
		"setup_s":           {setup, "s"},
		"wall_s":            {median(wall), "s"},
		"sim_mcycles_per_s": {median(rate), "Mcycles/s"},
		"cpu_s":             {median(cpu), "s"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
