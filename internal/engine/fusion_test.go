package engine

import (
	"reflect"
	"testing"

	"hmtx/internal/memsys"
	"hmtx/internal/obs"
	"hmtx/internal/vid"
)

// FuzzOpFusion's program encoding. data[0] picks 2 to 64 cores and data[1]
// the machine flags; every following byte pair (code, arg) appends one
// operation to the current core's program, starting at core 0.
const (
	fzLoadShared  = iota // Load a word of one of four shared lines
	fzLoadPriv           // Load a word of the core's private line
	fzStoreShared        // Store to one of the shared lines
	fzStorePriv          // Store to the private line
	fzCompute            // Compute 1-16 cycles; ComputeValidation if arg's top bit is set
	fzBranch             // Branch at one of four sites
	fzTxInfo             // SpecAccessCount
	fzTx                 // Begin the core's next transaction, or Commit the open one
	fzAwait              // AwaitCommitted on a sequence number below the core's own
	fzNextCore           // move on to the next core's program
	fzCodes
)

// fzSLAOff is the data[1] flag that disables SLAs, so a mispredicted
// branch's wrong-path loads can abort the run.
const fzSLAOff = 1

// fzMaxBytes bounds the decoded input, so one input runs in milliseconds.
const fzMaxBytes = 4096

type fzOp struct{ code, arg byte }

// fzMachine is a decoded input: the machine and each core's program.
// Transactions are numbered round by round (every core's first, in core
// order, then every core's second), so each core's transactions ascend and
// every number from 1 to the total commits unless the run aborts: the
// programs cannot deadlock.
type fzMachine struct {
	cores  int
	slaOff bool
	ops    [][]fzOp
	seqs   [][]vid.Seq // core i's transactions, relative to the Run's base
	total  vid.Seq
}

func decodeFusion(data []byte) (m fzMachine, ok bool) {
	if len(data) < 2 {
		return m, false
	}
	data = data[:min(len(data), fzMaxBytes)]
	m.cores = 2 + int(data[0])%63
	m.slaOff = data[1]&fzSLAOff != 0
	m.ops = make([][]fzOp, m.cores)
	ntx := make([]int, m.cores)
	open := make([]bool, m.cores)
	core := 0
	for i := 2; i+1 < len(data); i += 2 {
		op := fzOp{data[i] % fzCodes, data[i+1]}
		switch op.code {
		case fzNextCore:
			core = (core + 1) % m.cores
			continue
		case fzTx:
			if !open[core] {
				ntx[core]++
			}
			open[core] = !open[core]
		}
		m.ops[core] = append(m.ops[core], op)
	}
	m.seqs = make([][]vid.Seq, m.cores)
	for r := 0; ; r++ {
		more := false
		for i := range m.seqs {
			if ntx[i] > r {
				m.total++
				m.seqs[i] = append(m.seqs[i], m.total)
				more = true
			}
		}
		if !more {
			return m, true
		}
	}
}

// fzShared is a word of one of the four shared lines.
func fzShared(arg byte) memsys.Addr {
	return 0x9000 + memsys.Addr(arg%4)*memsys.LineSize + memsys.Addr(arg/4%8)*8
}

// programs builds the machine's programs for a Run whose transactions start
// after base. With sync set, every program calls Now after each operation,
// which hands the scheduler any buffered operation at once: the host order
// of program code without op fusion. Every loaded value is appended to
// loads[core].
func (m *fzMachine) programs(base vid.Seq, sync bool, loads [][]uint64) []Program {
	progs := make([]Program, m.cores)
	for i := range progs {
		i := i
		progs[i] = func(e *Env) {
			tx, open := 0, false
			for _, op := range m.ops[i] {
				switch op.code {
				case fzLoadShared:
					loads[i] = append(loads[i], e.Load(fzShared(op.arg)))
				case fzLoadPriv:
					loads[i] = append(loads[i], e.Load(privLine(i)+memsys.Addr(op.arg%8)*8))
				case fzStoreShared:
					e.Store(fzShared(op.arg), uint64(op.arg))
				case fzStorePriv:
					e.Store(privLine(i)+memsys.Addr(op.arg%8)*8, uint64(op.arg))
				case fzCompute:
					if n := int64(1 + op.arg%16); op.arg&0x80 != 0 {
						e.ComputeValidation(n)
					} else {
						e.Compute(n)
					}
				case fzBranch:
					e.Branch(uint64(op.arg%4), op.arg&0x10 != 0)
				case fzTxInfo:
					loads[i] = append(loads[i], e.SpecAccessCount())
				case fzTx:
					if open {
						e.Commit(base + m.seqs[i][tx])
						tx++
					} else {
						e.Begin(base + m.seqs[i][tx])
					}
					open = !open
				case fzAwait:
					// Only transactions numbered below the core's
					// open or next one, which never wait on it.
					limit := m.total + 1
					if tx < len(m.seqs[i]) {
						limit = m.seqs[i][tx]
					}
					if limit > 1 {
						e.AwaitCommitted(base + 1 + vid.Seq(op.arg)%(limit-1))
					}
				}
				if sync {
					e.Now()
				}
			}
			if open {
				e.Commit(base + m.seqs[i][tx])
			}
		}
	}
	return progs
}

// buffered is how many Compute and Branch operations core c holds ahead of
// the request its program is suspended at, counting one being stepped.
func buffered(c *core) int { return int(c.nOps) - int(c.opAt) - 1 }

// fzOutcome is everything FuzzOpFusion compares, plus held.
type fzOutcome struct {
	Events  []DebugEvent
	Results []RunResult
	Stats   Stats
	Mem     uint64 // memsys Fingerprint over every known line
	Loads   [][]uint64

	// held is the most operations any core had buffered at a step. It is
	// not compared: it shows whether fusion happened at all.
	held int
}

// runFusion runs the machine's programs twice on one System, the second
// Run re-executing from the first's commit frontier as a recovery run does.
func runFusion(m fzMachine, sync bool) fzOutcome {
	cfg := DefaultConfig()
	cfg.Mem.Cores = m.cores
	cfg.Mem.SLAEnabled = !m.slaOff
	s := New(cfg)
	out := fzOutcome{Loads: make([][]uint64, m.cores)}
	s.SetDebugHook(func(ev DebugEvent) {
		out.Events = append(out.Events, ev)
		for _, c := range s.cores {
			out.held = max(out.held, buffered(c))
		}
	})
	var base vid.Seq
	for run := 0; run < 2; run++ {
		res := s.Run(m.programs(base, sync, out.Loads))
		out.Results = append(out.Results, res)
		base = res.LastCommitted
	}
	out.Stats = *s.Stats()
	out.Mem = s.Mem.Fingerprint(s.Mem.Addrs())
	return out
}

// checkFusion runs data with and without op fusion and fails t on any
// difference. It returns both outcomes.
func checkFusion(t *testing.T, data []byte) (fused, unfused fzOutcome) {
	t.Helper()
	m, ok := decodeFusion(data)
	if !ok {
		return
	}
	fused, unfused = runFusion(m, false), runFusion(m, true)
	if unfused.held > 1 {
		t.Fatalf("a core held %d buffered operations with Now after every call, want at most 1", unfused.held)
	}
	for i := range min(len(fused.Events), len(unfused.Events)) {
		if fused.Events[i] != unfused.Events[i] {
			t.Fatalf("event %d: fused %+v, unfused %+v", i, fused.Events[i], unfused.Events[i])
		}
	}
	a, b := fused, unfused
	a.held, b.held = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fused and unfused runs differ:\n  fused %+v %+v mem %#x\nunfused %+v %+v mem %#x",
			a.Results, a.Stats, a.Mem, b.Results, b.Stats, b.Mem)
	}
	return fused, unfused
}

// Seed-corpus builders: one byte pair per operation.
func ldS(arg byte) []byte { return []byte{fzLoadShared, arg} }
func ldP(arg byte) []byte { return []byte{fzLoadPriv, arg} }
func stS(arg byte) []byte { return []byte{fzStoreShared, arg} }
func stP(arg byte) []byte { return []byte{fzStorePriv, arg} }
func cmp(n byte) []byte   { return []byte{fzCompute, n - 1} }
func val(n byte) []byte   { return []byte{fzCompute, 0x80 | (n - 1)} }
func info() []byte        { return []byte{fzTxInfo, 0} }
func txn() []byte         { return []byte{fzTx, 0} }
func await(k byte) []byte { return []byte{fzAwait, k} }
func nextCore() []byte    { return []byte{fzNextCore, 0} }
func br(site byte, taken bool) []byte {
	if taken {
		site |= 0x10
	}
	return []byte{fzBranch, site}
}

func ops(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func repeat(n int, op []byte) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, op...)
	}
	return b
}

// everyCore is the same program on each of n cores.
func everyCore(n int, prog func(core int) []byte) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, prog(i)...)
		b = append(b, nextCore()...)
	}
	return b
}

type fusionSeed struct {
	name string
	data []byte
}

// fuzzSeed builds a seed from its machine and its stages: alternating
// stage descriptions and the operations each stage appends, in the order a
// reader follows the scenario.
func fuzzSeed(name string, cores int, flags byte, stages ...any) fusionSeed {
	s := fusionSeed{name: name, data: []byte{byte(cores - 2), flags}}
	for i := 1; i < len(stages); i += 2 {
		s.data = append(s.data, stages[i].([]byte)...)
	}
	return s
}

var fusionSeeds = []fusionSeed{
	fuzzSeed("runs between loads", 4, 0,
		"core 0: runs of one to six Computes and Branches between loads, "+
			"so the buffer fills and the fifth operation yields",
		ops(ldS(0), cmp(3), ldS(1), cmp(2), br(0, true), ldP(0),
			cmp(1), br(1, false), cmp(4), br(1, true), cmp(2), val(5), ldS(0), nextCore()),
		"core 1: branches that mispredict on a shared line",
		ops(ldS(0), br(2, true), br(2, true), ldS(4), br(2, false), cmp(7), ldP(1), nextCore()),
		"cores 2 and 3: long compute runs that end the program",
		ops(cmp(16), cmp(16), ldP(0), cmp(1), cmp(2), cmp(3), nextCore(),
			ldS(2), br(3, false), cmp(9), br(3, true), cmp(9)),
	),
	fuzzSeed("in-order commits", 4, 0,
		"every core: one transaction of stores, loads and runs, "+
			"committed in core order while later cores park on their commit",
		everyCore(4, func(i int) []byte {
			return ops(txn(), stP(byte(i)), ldS(byte(i)), cmp(byte(16-3*i)), br(0, i%2 == 0),
				info(), ldP(1), cmp(2), br(1, true), txn(),
				txn(), ldS(byte(i+1)), cmp(3), br(2, false), txn())
		}),
	),
	fuzzSeed("conflict abort", 4, 0,
		"core 0: transaction 1 computes, then writes a shared line that "+
			"transaction 2 has read: a flow-dependence abort",
		ops(cmp(8), br(0, true), txn(), cmp(4), cmp(5), stS(0), txn(), nextCore()),
		"core 1: transaction 2 reads the line, then computes far ahead",
		ops(txn(), ldS(0), cmp(16), cmp(16), cmp(16), cmp(16), txn(), nextCore()),
		"cores 2 and 3: hold buffered runs when the abort lands",
		ops(ldP(0), cmp(3), br(1, true), cmp(3), ldP(0), cmp(3), br(1, false), cmp(3), ldP(1), nextCore(),
			ldP(2), br(2, true), cmp(2), br(2, true), ldP(2), cmp(2), br(2, false), ldP(3)),
	),
	fuzzSeed("wrong-path loads without SLAs", 3, fzSLAOff,
		"core 0: transaction 1 computes for 800 cycles, then writes shared line 0",
		ops(txn(), repeat(50, cmp(16)), stS(0), txn(), nextCore()),
		"core 1: transaction 2 reads shared line 3 and keeps mispredicting, "+
			"so its wrong-path loads stray onto line 0 and mark it",
		ops(txn(), ldS(3), br(0, true), br(0, true), br(0, false), br(0, true), br(0, false),
			br(0, true), ldS(3), br(0, false), br(0, true), cmp(2), txn(), nextCore()),
		"core 2: runs of operations meanwhile",
		ops(ldP(0), cmp(3), br(1, true), cmp(2), ldP(1), cmp(3), br(1, false), cmp(1), ldP(0)),
	),
	fuzzSeed("awaits and txinfo", 3, 0,
		"cores 0 and 1: two transactions each, counting their accesses",
		ops(txn(), stP(0), info(), cmp(5), txn(), txn(), ldS(0), info(), txn(), nextCore(),
			cmp(30), txn(), stP(1), cmp(2), br(0, true), txn(), txn(), info(), txn(), nextCore()),
		"core 2: awaits the others' commits between runs of operations",
		ops(cmp(1), br(1, true), await(0), cmp(3), ldS(1), await(2), br(1, false), cmp(3), ldS(1)),
	),
	fuzzSeed("64 cores", 64, 0,
		"every core: shared loads between runs, then one transaction, "+
			"128 numbers in all, crossing a VID epoch",
		everyCore(64, func(i int) []byte {
			return ops(ldS(byte(i)), cmp(byte(1+i%5)), br(byte(i%4), i%3 != 0), ldP(0),
				txn(), ldS(byte(i+1)), cmp(byte(1+i%3)), br(byte(i%4), i%2 == 0), cmp(2), stP(0), txn(),
				txn(), ldS(byte(i)), br(0, true), stP(1), txn())
		}),
	),
}

// FuzzOpFusion holds op fusion to the unfused host order: every decoded
// program set runs once as is and once with Now after every call, and both
// must produce the same debug-event stream, RunResults, engine Stats,
// memsys Fingerprint and loaded values.
func FuzzOpFusion(f *testing.F) {
	for _, s := range fusionSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFusion(t, data) })
}

// TestOpFusionSeeds runs every seed through the differential check and
// requires each to buffer several operations on some core, so the check is
// not vacuous.
func TestOpFusionSeeds(t *testing.T) {
	for _, s := range fusionSeeds {
		t.Run(s.name, func(t *testing.T) {
			fused, _ := checkFusion(t, s.data)
			if fused.held < 2 {
				t.Errorf("no core held more than %d buffered operations", fused.held)
			}
		})
	}
}

// TestNowAndEmitSeeBufferedOps: Now and Emit read the core's clock after its
// buffered operations. Two cores compute in lockstep, so each keeps losing
// the run queue's root and buffering its Computes; Now must still return
// every cycle computed so far, and Emit must stamp its event with them.
func TestNowAndEmitSeeBufferedOps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.Cores = 2
	s := New(cfg)
	tr := obs.NewTracer(obs.CatAll, 1<<12)
	s.SetTracer(tr)
	buffered, emits := 0, 0
	prog := func(e *Env) {
		var want int64
		for k := int64(1); k <= 20; k++ {
			e.Compute(k)
			want += k
			if e.c.nOps != 0 {
				buffered++
			}
			if k%2 == 0 {
				if got := e.Now(); got != want {
					t.Errorf("core %d: Now %d after %d cycles of Compute", e.CoreID(), got, want)
				}
			} else {
				e.Emit(obs.Event{Kind: obs.KSpanBegin, Arg: uint64(want), Note: "probe"})
			}
		}
	}
	s.Run([]Program{prog, prog})
	if buffered < 10 {
		t.Fatalf("only %d of 40 Computes were buffered", buffered)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KSpanBegin {
			emits++
			if ev.Cycle != int64(ev.Arg) {
				t.Errorf("core %d: event stamped %d after %d cycles of Compute", ev.Core, ev.Cycle, ev.Arg)
			}
		}
	}
	if emits != 20 {
		t.Fatalf("%d emitted events in the trace, want 20", emits)
	}
}
