package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"hmtx/internal/ckpt"
	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/paradigm"
	"hmtx/internal/prof"
	"hmtx/internal/smtx"
	"hmtx/internal/vid"
	"hmtx/internal/workloads"
)

// paperCores is the evaluated machine size (Table 2).
const paperCores = 4

// Record is the simulated outcome of one unit: everything the golden files
// pin and the oracles compare.
type Record struct {
	Cycles      int64             `json:"cycles"`
	Iterations  int               `json:"iterations"`
	Aborts      int               `json:"aborts"`
	Runs        int               `json:"runs"`
	ExitedEarly bool              `json:"exited_early,omitempty"`
	Engine      engine.Stats      `json:"engine"`
	Mem         memsys.Stats      `json:"memsys"`
	Instruments map[string]string `json:"instruments,omitempty"`
}

func outcomeRecord(out hmtx.Outcome, sys *engine.System) Record {
	return Record{
		Cycles: out.Cycles, Iterations: out.Iterations, Aborts: out.Aborts,
		Runs: out.Runs, ExitedEarly: out.ExitedEarly,
		Engine: *sys.Stats(), Mem: *sys.Mem.Stats(),
	}
}

// unit is one simulation: engine.New, set-up, run call, output check. Key
// names it in the golden file and, with "/" read as ".", in run_ms metrics.
type unit struct {
	key string
	run func(b *bench) (Record, error)
}

// countRecord records a unit's engine and memsys work counts where its run
// call returns; the traced run sums them into the per-layer count metrics.
func (b *bench) countRecord(r Record) {
	if b.tr == nil {
		return
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"engine.instructions", r.Engine.Instructions},
		{"engine.txs", r.Engine.Txs},
		{"engine.mispredicts", r.Engine.Mispredicts},
		{"engine.commit_stall_cycles", r.Engine.CommitStallCycles},
		{"memsys.l1_hits", r.Mem.L1Hits},
		{"memsys.peer_transfers", r.Mem.PeerTransfers},
		{"memsys.l2_hits", r.Mem.L2Hits},
		{"memsys.mem_reads", r.Mem.MemReads},
		{"memsys.bus_messages", r.Mem.BusMessages},
		{"memsys.versions_created", r.Mem.VersionsCreated},
		{"memsys.commits", r.Mem.Commits},
		{"memsys.aborts", r.Mem.Aborts},
	} {
		b.tr.count(c.name, c.v)
	}
}

// newSystem is engine.New under a span.
func (b *bench) newSystem(cfg engine.Config) *engine.System {
	id := b.tr.begin("engine.New")
	sys := engine.New(cfg)
	b.tr.end(id)
	return sys
}

// setupLoop is Spec.New plus Loop.Setup under a span.
func (b *bench) setupLoop(spec workloads.Spec, sys *engine.System) paradigm.Loop {
	id := b.tr.begin("Loop.Setup")
	loop := spec.New(1)
	loop.Setup(sys.Mem)
	b.tr.end(id)
	return loop
}

// paperConfig is the Table 2 machine with the run's seed, which drives the
// engine's only randomness: the wrong-path addresses of mispredictions.
func (b *bench) paperConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = paperCores
	cfg.Seed = b.seed
	cfg.Domains = 1
	return cfg
}

// ---- paper-suite ----------------------------------------------------------

// paperSystems lists the systems of Fig. 8 and Table 1 for one kernel, seq
// first so the oracle has its reference before the speculative runs.
func paperSystems(spec workloads.Spec) []string {
	if spec.HasSMTX {
		return []string{"seq", "hmtx", "smtx-min", "smtx-max"}
	}
	return []string{"seq", "hmtx"}
}

func paperUnits() []unit {
	var us []unit
	for _, spec := range workloads.All() {
		for _, system := range paperSystems(spec) {
			us = append(us, unit{spec.Name + "/" + system, func(b *bench) (Record, error) {
				return b.paperUnit(spec, system)
			}})
		}
	}
	return us
}

func (b *bench) paperUnit(spec workloads.Spec, system string) (Record, error) {
	sys := b.newSystem(b.paperConfig())
	loop := b.setupLoop(spec, sys)
	var out hmtx.Outcome
	switch system {
	case "seq":
		id := b.tr.begin("paradigm.RunSequential")
		out = hmtx.Outcome{Cycles: paradigm.RunSequential(sys, loop), Iterations: loop.Iters(), Runs: 1}
		b.tr.end(id)
	case "hmtx":
		id := b.tr.begin("hmtx.RunOpts")
		out = hmtx.RunOpts(sys, loop, spec.Paradigm, paperCores, hmtx.Options{})
		b.tr.end(id)
	case "smtx-min", "smtx-max":
		mode := smtx.MinSet
		if system == "smtx-max" {
			mode = smtx.MaxSet
		}
		id := b.tr.begin("smtx.Run")
		out = smtx.Run(sys, loop, spec.Paradigm, paperCores, mode, smtx.DefaultConfig())
		b.tr.end(id)
	}
	rec := outcomeRecord(out, sys)
	b.countRecord(rec)
	if out.Aborts > 0 {
		return rec, fmt.Errorf("unexpected aborts: %d", out.Aborts)
	}

	// Sequential oracle: whatever the seed, a speculative run must commit
	// exactly the memory the sequential run of the same kernel leaves.
	id := b.tr.begin("check")
	defer b.tr.end(id)
	img := committedImage(sys.Mem)
	if system == "seq" {
		b.seqImg[spec.Name] = img
		return rec, nil
	}
	ref, ok := b.seqImg[spec.Name]
	if !ok {
		return rec, fmt.Errorf("no sequential reference for %s", spec.Name)
	}
	return rec, ref.diff(img)
}

// image is the committed memory a run leaves: every line with a nonzero
// word, as seen through Hierarchy.PeekWord.
type image map[memsys.Addr][memsys.LineSize / 8]uint64

func committedImage(h *memsys.Hierarchy) image {
	img := image{}
	for _, a := range h.Addrs() {
		var words [memsys.LineSize / 8]uint64
		nonzero := false
		for w := range words {
			words[w] = h.PeekWord(a + memsys.Addr(8*w))
			nonzero = nonzero || words[w] != 0
		}
		if nonzero {
			img[a] = words
		}
	}
	return img
}

// diff reports the lowest line where got differs from the reference.
func (ref image) diff(got image) error {
	var bad []memsys.Addr
	for a, w := range ref {
		if got[a] != w {
			bad = append(bad, a)
		}
	}
	for a := range got {
		if _, ok := ref[a]; !ok {
			bad = append(bad, a)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return fmt.Errorf("committed memory differs from the sequential run at %d lines, first %#x: %x != %x",
		len(bad), uint64(bad[0]), got[bad[0]], ref[bad[0]])
}

// ---- manycore -------------------------------------------------------------

// The manycore shape: every core runs mcTxs transactions of mcSteps
// (load, compute, branch) steps over its own line, then stores a value
// folded from what it loaded. mcUnits units form one pass.
const (
	mcCores = 64
	mcTxs   = 50
	mcSteps = 40
	mcUnits = 4
)

// mcStep is one generated step of a manycore transaction.
type mcStep struct {
	word    uint8 // word of the private line to load
	compute uint8 // cycles of Compute, 1..16
	taken   bool  // branch outcome
}

// mcInput is the generated input of one manycore unit.
type mcInput struct {
	init  [mcCores]uint64
	keys  [mcCores][mcTxs]uint64
	steps [mcCores][mcTxs * mcSteps]mcStep
	want  [mcCores]uint64 // final value of each private line
}

// envCalls is the number of Env calls one unit's programs make.
const envCalls = mcCores * (1 + mcTxs*(4+3*mcSteps))

func mcLine(core int) memsys.Addr { return memsys.Addr(0x100000 + core*0x1000) }

// mix64 is the splitmix64 finalizer, the generators' only randomness.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// genManycore builds unit j's input from the seed and computes the value
// every private line must hold when the unit ends.
func genManycore(seed int64, j int) *mcInput {
	in := &mcInput{}
	state := mix64(uint64(seed)*0x100000001B3 + uint64(j))
	next := func() uint64 { state = mix64(state); return state }
	for c := 0; c < mcCores; c++ {
		in.init[c] = next()
		v := in.init[c]
		for r := 0; r < mcTxs; r++ {
			in.keys[c][r] = next()
			acc := v
			for k := 0; k < mcSteps; k++ {
				x := next()
				s := mcStep{word: uint8(x % 8), compute: uint8(1 + (x>>8)%16), taken: (x>>16)%8 != 0}
				in.steps[c][r*mcSteps+k] = s
				if s.word == 0 {
					acc += v
				}
			}
			v = mix64(acc ^ in.keys[c][r])
		}
		in.want[c] = v
	}
	return in
}

func (in *mcInput) programs() []engine.Program {
	progs := make([]engine.Program, mcCores)
	for c := range progs {
		progs[c] = func(e *engine.Env) {
			base := mcLine(c)
			e.Load(base)
			for r := 0; r < mcTxs; r++ {
				seq := vid.Seq(r*mcCores + c + 1)
				e.Begin(seq)
				acc := e.Load(base)
				for _, s := range in.steps[c][r*mcSteps : (r+1)*mcSteps] {
					acc += e.Load(base + memsys.Addr(8*int(s.word)))
					e.Compute(int64(s.compute))
					e.Branch(uint64(c), s.taken)
				}
				e.Store(base, mix64(acc^in.keys[c][r]))
				e.Commit(seq)
			}
		}
	}
	return progs
}

func mcConfig(seed int64, domains int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = mcCores
	cfg.Mem.VIDSpace = vid.Space{Bits: 8}
	cfg.Seed = seed
	cfg.Domains = domains
	return cfg
}

func manycoreUnits(seed int64) []unit {
	us := make([]unit, mcUnits)
	for j := range us {
		in := genManycore(seed, j)
		us[j] = unit{fmt.Sprintf("manycore/%d", j), func(b *bench) (Record, error) {
			return b.manycoreUnit(in, 1)
		}}
	}
	return us
}

func (b *bench) manycoreUnit(in *mcInput, domains int) (Record, error) {
	sys := b.newSystem(mcConfig(b.seed, domains))
	for c := 0; c < mcCores; c++ {
		sys.Mem.PokeWord(mcLine(c), in.init[c])
	}
	progs := in.programs()
	id := b.tr.begin("System.Run")
	res := sys.Run(progs)
	b.tr.end(id)
	b.tr.count("engine.env_calls", envCalls)
	rec := Record{Cycles: res.Cycles, Runs: 1, Engine: *sys.Stats(), Mem: *sys.Mem.Stats()}
	b.countRecord(rec)

	id = b.tr.begin("check")
	defer b.tr.end(id)
	if res.Aborted {
		return rec, fmt.Errorf("unexpected abort: %s", res.Cause)
	}
	for c := 0; c < mcCores; c++ {
		if got := sys.Mem.PeekWord(mcLine(c)); got != in.want[c] {
			return rec, fmt.Errorf("core %d line holds %#x, generator says %#x", c, got, in.want[c])
		}
	}
	return rec, nil
}

// ---- observed -------------------------------------------------------------

// observedKernels are the DOALL kernel and one PS-DSWP kernel.
var observedKernels = []string{"052.alvinn", "164.gzip"}

// observedSegments is how many checkpoint segments an observed run is cut
// into; the run halts at the first boundary past its midpoint.
const observedSegments = 8

// instrumentNames are the four instruments attached to an observed unit, in
// snapshot order.
var instrumentNames = []string{"prof", "series", "conflicts", "hist"}

func observedSpecs() []workloads.Spec {
	var specs []workloads.Spec
	for _, name := range observedKernels {
		spec, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

func observedUnits() []unit {
	var us []unit
	for _, spec := range observedSpecs() {
		us = append(us, unit{spec.Name, func(b *bench) (Record, error) {
			rec, err := b.observedUnit(spec, true)
			if err != nil {
				return rec, err
			}
			if ref, ok := b.refs[spec.Name]; ok {
				return rec, diffRecords(ref, rec, "its uninterrupted segmented run")
			}
			return rec, fmt.Errorf("no uninterrupted reference for %s", spec.Name)
		}})
	}
	return us
}

// observedRefs are the uninterrupted segmented runs the resumed observed
// units must equal; they are part of the workload's set-up.
func observedRefs() []unit {
	var us []unit
	for _, spec := range observedSpecs() {
		us = append(us, unit{spec.Name, func(b *bench) (Record, error) {
			rec, err := b.observedUnit(spec, false)
			if err == nil {
				b.refs[spec.Name] = rec
			}
			return rec, err
		}})
	}
	return us
}

// segmentLen is the iterations per checkpoint segment of an observed run.
func segmentLen(loop paradigm.Loop) int {
	return (loop.Iters() + observedSegments - 1) / observedSegments
}

// observedUnit runs one kernel under hmtx with every instrument attached.
// With halt set it stops at the first segment boundary past the midpoint,
// round-trips a checkpoint through CaptureRun, Write, Read and RestoreRun,
// and resumes on the restored system.
func (b *bench) observedUnit(spec workloads.Spec, halt bool) (Record, error) {
	cfg := b.paperConfig()
	sys := b.newSystem(cfg)
	sys.SetProf(prof.New())
	sys.SetSeries(metrics.NewSampler(0))
	sys.SetConflicts(metrics.NewRecorder(0))
	sys.SetLatHists(metrics.NewLatHists())
	loop := b.setupLoop(spec, sys)
	opts := hmtx.Options{Every: segmentLen(loop)}
	halted := false
	if halt {
		opts.Checkpoint = func(nextIt int, _ hmtx.Outcome) bool {
			halted = nextIt >= loop.Iters()/2
			return halted
		}
	}
	id := b.tr.begin("hmtx.RunOpts")
	out := hmtx.RunOpts(sys, loop, spec.Paradigm, paperCores, opts)
	b.tr.end(id)
	if halt {
		if !halted {
			return Record{}, fmt.Errorf("run ended before its checkpoint boundary")
		}
		var err error
		if sys, out, err = b.resume(spec, cfg, sys, opts.Every, out); err != nil {
			return Record{}, err
		}
	}
	rec := outcomeRecord(out, sys)
	b.countRecord(rec)
	if out.Aborts > 0 {
		return rec, fmt.Errorf("unexpected aborts: %d", out.Aborts)
	}
	sys.FlushSeries()
	b.tr.count("metrics.series_rows", uint64(sys.Series().Rows()))
	label := spec.Name + "/hmtx"
	rec.Instruments = map[string]string{}
	for _, name := range instrumentNames {
		id := b.tr.begin("snapshot." + name)
		var snap any
		switch name {
		case "prof":
			snap = sys.Prof().Snapshot(spec.Name, "hmtx", spec.Paradigm.String(), 0)
		case "series":
			snap = sys.Series().Snapshot(label)
		case "conflicts":
			snap = sys.Conflicts().Snapshot(label)
		case "hist":
			snap = sys.LatHists().Snapshot(label)
		}
		b.tr.end(id)
		d, err := digest(snap)
		if err != nil {
			return rec, err
		}
		rec.Instruments[name] = d
	}
	return rec, nil
}

// resume checkpoints the halted system and continues the run on a system
// restored from the checkpoint bytes.
func (b *bench) resume(spec workloads.Spec, cfg engine.Config, sys *engine.System, every int, sofar hmtx.Outcome) (*engine.System, hmtx.Outcome, error) {
	id := b.tr.begin("ckpt.CaptureRun")
	doc := ckpt.CaptureRun(sys, ckpt.RunState{
		Bench: spec.Name, System: "hmtx", Paradigm: spec.Paradigm.String(),
		Cores: paperCores, Scale: 1, Every: every, EngineCfg: cfg,
		NextIt: int(sys.LastCommitted()), Partial: sofar,
	})
	b.tr.end(id)

	id = b.tr.begin("ckpt.Write")
	var buf bytes.Buffer
	err := ckpt.Write(&buf, doc)
	b.tr.end(id)
	if err != nil {
		return nil, sofar, err
	}
	data := buf.Bytes()
	b.tr.count("ckpt.bytes", uint64(len(data)))
	if b.corrupt != nil {
		data = b.corrupt(data)
	}

	id = b.tr.begin("ckpt.Read")
	doc, err = ckpt.Read(bytes.NewReader(data))
	b.tr.end(id)
	if err != nil {
		return nil, sofar, err
	}

	id = b.tr.begin("ckpt.RestoreRun")
	sys, err = ckpt.RestoreRun(doc)
	b.tr.end(id)
	if err != nil {
		return nil, sofar, err
	}

	id = b.tr.begin("hmtx.RunOpts")
	out := hmtx.RunOpts(sys, spec.New(1), spec.Paradigm, paperCores,
		hmtx.Options{Every: doc.Run.Every, Partial: doc.Run.Partial})
	b.tr.end(id)
	return sys, out, nil
}

// digest is the SHA-256 of a snapshot's JSON encoding.
func digest(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
