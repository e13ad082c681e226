// Command hmtxdbg is the time-travel debugger for hmtx-ckpt/v1 checkpoints
// (DESIGN.md §18): it re-materialises any simulated instant of a checkpointed
// run by deterministic re-execution, and steps through model-checker
// counterexamples stimulus by stimulus.
//
// Usage:
//
//	hmtxdbg [-c "cmd; cmd; ..."] checkpoint.json
//
// With -c the command list runs in batch mode; otherwise hmtxdbg reads
// commands interactively from stdin. Commands:
//
//	seek N              go to simulated cycle N (run) or stimulus step N (check)
//	step [cycle|event|tx]  advance one cycle, one engine event, or to the next
//	                    transaction begin/commit/abort (check: one stimulus)
//	continue            run forward until a watchpoint hits
//	watch line ADDR     break on any load/store of the line
//	watch state ADDR    break when the line's MOESI state changes in any cache
//	watch version ADDR  break when a new speculative version of the line appears
//	watch vid N         break on begin/commit/abort of transaction sequence N
//	watch abort         break on any explicit transaction abort
//	watch               list watchpoints;  delete N removes one
//	line ADDR           MOESI state, version chain and data of a cache line
//	tx N                VID mapping and read/write footprint of a transaction
//	core N              resident lines of core N's L1 (and its last event)
//	diff A B            state differences between cycles/steps A and B
//	info                current position;  trace (check) prints the stimulus trace
//	dump                render every valid line in the hierarchy
//	help                command summary;  quit exits
//
// Time travel never suspends the simulation: a "run" checkpoint pins a
// quiescent engine boundary, and every seek re-executes deterministically
// from that boundary with a capture hook, snapshotting the memory hierarchy
// the first time the target instant (or a watchpoint) is reached. Seeking
// backwards is just another re-execution. "check" checkpoints replay the
// counterexample's stimulus prefix instead; the engine is not involved.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"hmtx/internal/check"
	"hmtx/internal/ckpt"
	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/paradigm"
	"hmtx/internal/vid"
	"hmtx/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmtxdbg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	script := fs.String("c", "", "execute this semicolon-separated command list and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hmtxdbg [-c \"cmd; cmd\"] checkpoint.json")
		return 2
	}
	doc, err := ckpt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "hmtxdbg: %v\n", err)
		return 1
	}
	d := &dbg{doc: doc, out: stdout}
	switch doc.Kind {
	case ckpt.KindRun:
		err = d.openRun()
	case ckpt.KindCheck:
		err = d.openCheck()
	default:
		err = fmt.Errorf("%s records experiment-suite progress, not machine state; resume it with cmd/experiments -resume", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "hmtxdbg: %v\n", err)
		return 1
	}

	exec := func(line string) bool {
		line = strings.TrimSpace(line)
		if line == "" {
			return true
		}
		if line == "quit" || line == "q" || line == "exit" {
			return false
		}
		if err := d.do(line); err != nil {
			fmt.Fprintf(stdout, "error: %v\n", err)
		}
		return true
	}

	if *script != "" {
		for _, c := range strings.Split(*script, ";") {
			if !exec(c) {
				break
			}
		}
		return 0
	}
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "(hmtxdbg) ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return 0
		}
		if !exec(sc.Text()) {
			return 0
		}
	}
}

// snap is one re-materialised instant of a checkpointed run: the event that
// was about to execute, its position, and a deep copy of the hierarchy.
type snap struct {
	cycle    int64
	idx      int // event index since the checkpoint boundary; -1 = boundary
	ev       *engine.DebugEvent
	h        *memsys.Hierarchy
	lastCore map[int]engine.DebugEvent
}

type watchpoint struct {
	kind string // "line", "state", "version", "vid", "abort"
	addr memsys.Addr
	seq  vid.Seq
}

func (w watchpoint) String() string {
	switch w.kind {
	case "line", "state", "version":
		return fmt.Sprintf("%s %#x", w.kind, w.addr)
	case "vid":
		return fmt.Sprintf("vid %d", w.seq)
	default:
		return w.kind
	}
}

type dbg struct {
	doc     *ckpt.Doc
	out     io.Writer
	watches []watchpoint

	// run kind
	spec    workloads.Spec
	kind    paradigm.Kind
	cur     *snap
	endSeen int64 // highest event cycle observed in a full re-execution

	// check kind
	steps   []check.Stimulus
	stepIdx int
	curH    *memsys.Hierarchy
}

func (d *dbg) isRun() bool { return d.doc.Kind == ckpt.KindRun }

// nCaches returns the cache count: one L1 per core plus the shared L2.
func (d *dbg) nCaches() int {
	if d.isRun() {
		return d.doc.Run.EngineCfg.Mem.Cores + 1
	}
	return d.doc.Check.Config.Cores + 1
}

func (d *dbg) cacheName(i int) string {
	if i == d.nCaches()-1 {
		return "l2"
	}
	return fmt.Sprintf("l1[%d]", i)
}

func (d *dbg) hier() *memsys.Hierarchy {
	if d.isRun() {
		return d.cur.h
	}
	return d.curH
}

func (d *dbg) openRun() error {
	rs := d.doc.Run
	spec, err := workloads.ByName(rs.Bench)
	if err != nil {
		return err
	}
	d.spec = spec
	if d.kind, err = paradigm.ParseParallel(rs.Paradigm); err != nil {
		return fmt.Errorf("checkpoint records %w", err)
	}
	// The initial position is the checkpoint boundary itself: its memory
	// image is in the document, no re-execution needed.
	sys, err := ckpt.RestoreRun(d.doc)
	if err != nil {
		return err
	}
	d.cur = &snap{cycle: rs.Engine.CumCycles, idx: -1, h: sys.Mem, lastCore: map[int]engine.DebugEvent{}}
	d.endSeen = rs.Engine.CumCycles
	fmt.Fprintf(d.out, "run checkpoint: %s on %s (%s, %d cores, scale %d)\n",
		rs.Bench, rs.System, rs.Paradigm, rs.Cores, rs.Scale)
	fmt.Fprintf(d.out, "captured at iteration %d, cycle %d (segment length %d)\n",
		rs.NextIt, rs.Engine.CumCycles, rs.Every)
	d.info()
	return nil
}

func (d *dbg) openCheck() error {
	cs := d.doc.Check
	if cs.Counterexample == nil {
		return fmt.Errorf("check checkpoint has no counterexample trace")
	}
	d.steps = cs.Counterexample.Steps
	// The recorded final state must be what replaying the whole trace on
	// this build's memsys gives; a checkpoint without one predates it.
	if cs.FinalState != nil {
		h, _, _ := cs.Config.ReplayTo(d.steps, len(d.steps))
		if h == nil || !bytes.Equal(h.AppendExact(nil), cs.FinalState.AppendDense(nil)) {
			return fmt.Errorf("replaying the counterexample does not reproduce the checkpoint's final state; it was written by a different memory system")
		}
	}
	fmt.Fprintf(d.out, "counterexample: %s (%s)\n",
		cs.Counterexample.Property, cs.Counterexample.Detail)
	fmt.Fprintf(d.out, "%d stimulus steps; the violation fires on step %d\n",
		len(d.steps), len(d.steps))
	if err := d.seekStep(len(d.steps)); err != nil {
		return err
	}
	return nil
}

// runUntil re-executes the checkpointed run from its boundary with the debug
// hook installed, capturing the state the first time pred returns true. The
// predicate sees each event BEFORE it executes, so the captured hierarchy
// reflects everything strictly earlier. Returns nil when the run finished
// without the predicate firing.
func (d *dbg) runUntil(pred func(ev engine.DebugEvent, h *memsys.Hierarchy, idx int) bool) (*snap, error) {
	sys, err := ckpt.RestoreRun(d.doc)
	if err != nil {
		return nil, err
	}
	var cap *snap
	idx := 0
	last := map[int]engine.DebugEvent{}
	sys.SetDebugHook(func(ev engine.DebugEvent) {
		if ev.Cycle > d.endSeen {
			d.endSeen = ev.Cycle
		}
		if cap == nil && pred(ev, sys.Mem, idx) {
			lc := make(map[int]engine.DebugEvent, len(last))
			for k, v := range last {
				lc[k] = v
			}
			e := ev
			cap = &snap{cycle: ev.Cycle, idx: idx, ev: &e, h: sys.Mem.Clone(), lastCore: lc}
		}
		last[ev.Core] = ev
		idx++
	})
	loop := d.spec.New(d.doc.Run.Scale)
	hmtx.RunOpts(sys, loop, d.kind, d.doc.Run.Cores, hmtx.Options{
		Every: d.doc.Run.Every, Partial: d.doc.Run.Partial,
	})
	return cap, nil
}

func (d *dbg) do(line string) error {
	f := strings.Fields(line)
	cmd, rest := f[0], f[1:]
	switch cmd {
	case "help", "h":
		fmt.Fprint(d.out, "commands: seek N | step [cycle|event|tx] | continue | watch ... | delete N |\n"+
			"          line ADDR | tx N | core N | diff A B | info | trace | dump | quit\n")
		return nil
	case "info":
		d.info()
		return nil
	case "dump":
		fmt.Fprint(d.out, d.hier().String())
		return nil
	case "trace":
		if d.isRun() {
			return fmt.Errorf("trace prints counterexample steps; this is a run checkpoint")
		}
		fmt.Fprint(d.out, d.doc.Check.Counterexample.Trace())
		return nil
	case "watch":
		return d.watchCmd(rest)
	case "delete":
		if len(rest) != 1 {
			return fmt.Errorf("usage: delete N")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n < 0 || n >= len(d.watches) {
			return fmt.Errorf("no watchpoint %s", rest[0])
		}
		d.watches = append(d.watches[:n], d.watches[n+1:]...)
		return nil
	case "seek":
		if len(rest) != 1 {
			return fmt.Errorf("usage: seek N")
		}
		n, err := strconv.ParseInt(rest[0], 0, 64)
		if err != nil {
			return fmt.Errorf("bad position %q", rest[0])
		}
		if d.isRun() {
			return d.seekCycle(n)
		}
		return d.seekStep(int(n))
	case "step", "s":
		mode := "event"
		if len(rest) == 1 {
			mode = rest[0]
		}
		return d.stepCmd(mode)
	case "continue", "c":
		return d.contin()
	case "line":
		if len(rest) != 1 {
			return fmt.Errorf("usage: line ADDR")
		}
		a, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return fmt.Errorf("bad address %q", rest[0])
		}
		d.queryLine(memsys.Addr(a))
		return nil
	case "tx":
		if len(rest) != 1 {
			return fmt.Errorf("usage: tx N")
		}
		n, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return fmt.Errorf("bad transaction %q", rest[0])
		}
		d.queryTx(vid.Seq(n))
		return nil
	case "core":
		if len(rest) != 1 {
			return fmt.Errorf("usage: core N")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n < 0 || n >= d.nCaches()-1 {
			return fmt.Errorf("no core %q", rest[0])
		}
		d.queryCore(n)
		return nil
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("usage: diff A B")
		}
		a, err1 := strconv.ParseInt(rest[0], 0, 64)
		b, err2 := strconv.ParseInt(rest[1], 0, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad positions %q %q", rest[0], rest[1])
		}
		return d.diffCmd(a, b)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (d *dbg) info() {
	if d.isRun() {
		if d.cur.idx < 0 {
			fmt.Fprintf(d.out, "position: checkpoint boundary, cycle %d (iteration %d committed)\n",
				d.cur.cycle, d.doc.Run.NextIt)
			return
		}
		fmt.Fprintf(d.out, "position: cycle %d, event %d: %s\n", d.cur.cycle, d.cur.idx, evString(*d.cur.ev))
		return
	}
	fmt.Fprintf(d.out, "position: step %d/%d", d.stepIdx, len(d.steps))
	if d.stepIdx > 0 {
		fmt.Fprintf(d.out, " (after %s)", stimString(d.steps[d.stepIdx-1]))
	}
	fmt.Fprintln(d.out)
}

func evString(ev engine.DebugEvent) string {
	s := fmt.Sprintf("core %d %s", ev.Core, ev.Op)
	switch ev.Op {
	case "load", "store":
		s += fmt.Sprintf(" %#x", ev.Addr)
	case "begin", "commit", "abort", "await":
		s += fmt.Sprintf(" tx %d", ev.Seq)
	}
	return s
}

func stimString(s check.Stimulus) string {
	return fmt.Sprintf("%v: %v", s.Op, s)
}

// seekCycle re-materialises the state at the start of cycle n: everything
// before cycle n has executed, nothing at or after it has.
func (d *dbg) seekCycle(n int64) error {
	base := d.doc.Run.Engine.CumCycles
	if n < base {
		return fmt.Errorf("cycle %d predates the checkpoint (cycle %d); re-run with an earlier -ckpt-every boundary", n, base)
	}
	if n == base {
		return d.gotoBoundary()
	}
	s, err := d.runUntil(func(ev engine.DebugEvent, _ *memsys.Hierarchy, _ int) bool {
		return ev.Cycle >= n
	})
	if err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("run ended at cycle %d, before cycle %d", d.endSeen, n)
	}
	d.cur = s
	d.info()
	return nil
}

func (d *dbg) gotoBoundary() error {
	sys, err := ckpt.RestoreRun(d.doc)
	if err != nil {
		return err
	}
	d.cur = &snap{cycle: d.doc.Run.Engine.CumCycles, idx: -1, h: sys.Mem, lastCore: map[int]engine.DebugEvent{}}
	d.info()
	return nil
}

func (d *dbg) seekStep(k int) error {
	if k < 0 || k > len(d.steps) {
		return fmt.Errorf("step %d out of range 0..%d", k, len(d.steps))
	}
	h, applied, err := d.doc.Check.Config.ReplayTo(d.steps, k)
	if err != nil {
		fmt.Fprintf(d.out, "replay stopped on step %d: %v\n", applied, err)
	}
	d.curH = h
	d.stepIdx = applied
	d.info()
	return nil
}

func (d *dbg) stepCmd(mode string) error {
	if !d.isRun() {
		return d.seekStep(d.stepIdx + 1)
	}
	cur := d.cur
	var pred func(ev engine.DebugEvent, h *memsys.Hierarchy, idx int) bool
	switch mode {
	case "event":
		pred = func(_ engine.DebugEvent, _ *memsys.Hierarchy, idx int) bool { return idx > cur.idx }
	case "cycle":
		pred = func(ev engine.DebugEvent, _ *memsys.Hierarchy, _ int) bool { return ev.Cycle > cur.cycle }
	case "tx":
		pred = func(ev engine.DebugEvent, _ *memsys.Hierarchy, idx int) bool {
			return idx > cur.idx && (ev.Op == "begin" || ev.Op == "commit" || ev.Op == "abort")
		}
	default:
		return fmt.Errorf("step what? (cycle, event or tx)")
	}
	s, err := d.runUntil(pred)
	if err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("run ended at cycle %d", d.endSeen)
	}
	d.cur = s
	d.info()
	return nil
}

func (d *dbg) watchCmd(rest []string) error {
	if len(rest) == 0 {
		if len(d.watches) == 0 {
			fmt.Fprintln(d.out, "no watchpoints")
		}
		for i, w := range d.watches {
			fmt.Fprintf(d.out, "%d: watch %s\n", i, w)
		}
		return nil
	}
	w := watchpoint{kind: rest[0]}
	switch w.kind {
	case "line", "state", "version":
		if len(rest) != 2 {
			return fmt.Errorf("usage: watch %s ADDR", w.kind)
		}
		a, err := strconv.ParseUint(rest[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad address %q", rest[1])
		}
		w.addr = memsys.LineAddr(memsys.Addr(a))
	case "vid":
		if len(rest) != 2 {
			return fmt.Errorf("usage: watch vid N")
		}
		n, err := strconv.ParseUint(rest[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad sequence %q", rest[1])
		}
		w.seq = vid.Seq(n)
	case "abort":
	default:
		return fmt.Errorf("watch what? (line, state, version, vid or abort)")
	}
	d.watches = append(d.watches, w)
	fmt.Fprintf(d.out, "%d: watch %s\n", len(d.watches)-1, w)
	return nil
}

// lineSig renders a line's full cross-cache coherence signature.
func (d *dbg) lineSig(h *memsys.Hierarchy, la memsys.Addr) (sig string, specVersions int) {
	var b strings.Builder
	for i := 0; i < d.nCaches(); i++ {
		for _, v := range h.Versions(i, la) {
			fmt.Fprintf(&b, "%s:%s ", d.cacheName(i), v.String())
			if v.St.Speculative() {
				specVersions++
			}
		}
	}
	if b.Len() == 0 {
		return "not resident", 0
	}
	return strings.TrimSpace(b.String()), specVersions
}

func (d *dbg) contin() error {
	if len(d.watches) == 0 {
		return fmt.Errorf("no watchpoints; set one with watch first")
	}
	if !d.isRun() {
		return d.continCheck()
	}
	minIdx := d.cur.idx
	var hit string
	sigs := make([]string, len(d.watches))
	counts := make([]int, len(d.watches))
	seen := make([]bool, len(d.watches))
	pred := func(ev engine.DebugEvent, h *memsys.Hierarchy, idx int) bool {
		for wi, w := range d.watches {
			switch w.kind {
			case "line":
				if idx > minIdx && (ev.Op == "load" || ev.Op == "store") && ev.Addr == w.addr {
					hit = fmt.Sprintf("watch %d (line %#x): %s by core %d", wi, w.addr, ev.Op, ev.Core)
					return true
				}
			case "vid":
				if idx > minIdx && ev.Seq == w.seq &&
					(ev.Op == "begin" || ev.Op == "commit" || ev.Op == "abort" || ev.Op == "await") {
					hit = fmt.Sprintf("watch %d (vid %d): %s on core %d", wi, w.seq, ev.Op, ev.Core)
					return true
				}
			case "abort":
				if idx > minIdx && ev.Op == "abort" {
					hit = fmt.Sprintf("watch %d: abort of tx %d on core %d", wi, ev.Seq, ev.Core)
					return true
				}
			case "state", "version":
				sig, n := d.lineSig(h, w.addr)
				oldSig, oldN, was := sigs[wi], counts[wi], seen[wi]
				sigs[wi], counts[wi], seen[wi] = sig, n, true
				if !was || idx <= minIdx {
					continue
				}
				if w.kind == "state" && sig != oldSig {
					hit = fmt.Sprintf("watch %d (state %#x): %s -> %s", wi, w.addr, oldSig, sig)
					return true
				}
				if w.kind == "version" && n > oldN {
					hit = fmt.Sprintf("watch %d (version %#x): %d -> %d speculative versions (%s)",
						wi, w.addr, oldN, n, sig)
					return true
				}
			}
		}
		return false
	}
	s, err := d.runUntil(pred)
	if err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("run ended at cycle %d without hitting a watchpoint", d.endSeen)
	}
	fmt.Fprintln(d.out, hit)
	d.cur = s
	d.info()
	return nil
}

// continCheck advances the counterexample replay until a watchpoint hits.
func (d *dbg) continCheck() error {
	sigs := make([]string, len(d.watches))
	counts := make([]int, len(d.watches))
	for wi, w := range d.watches {
		if w.kind == "state" || w.kind == "version" {
			sigs[wi], counts[wi] = d.lineSig(d.curH, w.addr)
		}
	}
	for k := d.stepIdx + 1; k <= len(d.steps); k++ {
		st := d.steps[k-1]
		h, applied, rerr := d.doc.Check.Config.ReplayTo(d.steps, k)
		for wi, w := range d.watches {
			var hit string
			switch w.kind {
			case "line":
				if memsys.LineAddr(st.Addr) == w.addr {
					hit = fmt.Sprintf("watch %d (line %#x): %s", wi, w.addr, stimString(st))
				}
			case "vid":
				if vid.Seq(st.VID) == w.seq {
					hit = fmt.Sprintf("watch %d (vid %d): %s", wi, w.seq, stimString(st))
				}
			case "state", "version":
				sig, n := d.lineSig(h, w.addr)
				if w.kind == "state" && sig != sigs[wi] {
					hit = fmt.Sprintf("watch %d (state %#x): %s -> %s", wi, w.addr, sigs[wi], sig)
				} else if w.kind == "version" && n > counts[wi] {
					hit = fmt.Sprintf("watch %d (version %#x): %d -> %d speculative versions", wi, w.addr, counts[wi], n)
				}
				sigs[wi], counts[wi] = sig, n
			}
			if hit != "" {
				fmt.Fprintln(d.out, hit)
				d.curH, d.stepIdx = h, applied
				if rerr != nil {
					fmt.Fprintf(d.out, "replay stopped on step %d: %v\n", applied, rerr)
				}
				d.info()
				return nil
			}
		}
		d.curH, d.stepIdx = h, applied
		if rerr != nil {
			return fmt.Errorf("replay stopped on step %d without hitting a watchpoint: %v", applied, rerr)
		}
	}
	return fmt.Errorf("trace ended at step %d without hitting a watchpoint", d.stepIdx)
}

func (d *dbg) queryLine(addr memsys.Addr) {
	h := d.hier()
	la := memsys.LineAddr(addr)
	fmt.Fprintf(d.out, "line %#x: committed word %#x\n", la, h.PeekWord(la))
	var chain []memsys.Line
	for i := 0; i < d.nCaches(); i++ {
		for _, v := range h.Versions(i, la) {
			fmt.Fprintf(d.out, "  %-6s %-10s word %#x  epoch %d", d.cacheName(i), v.String(), v.Word(la), v.Epoch)
			if v.St.Speculative() {
				fmt.Fprintf(d.out, "  (modVID %d, highVID %d)", v.Mod, v.High)
				chain = append(chain, v)
			}
			fmt.Fprintln(d.out)
		}
	}
	if len(chain) > 0 {
		sort.Slice(chain, func(i, j int) bool { return chain[i].Mod > chain[j].Mod })
		parts := make([]string, len(chain))
		for i, v := range chain {
			parts[i] = v.String()
		}
		fmt.Fprintf(d.out, "  version chain: %s -> mem\n", strings.Join(parts, " -> "))
	}
}

func (d *dbg) queryTx(seq vid.Seq) {
	h := d.hier()
	var v vid.V
	if d.isRun() {
		sp := d.doc.Run.EngineCfg.Mem.VIDSpace
		epoch, hw := sp.Split(seq)
		v = hw
		fmt.Fprintf(d.out, "tx %d: epoch %d, hardware VID %d (hierarchy epoch %d, LC %d)\n",
			seq, epoch, hw, h.CurrentEpoch(), h.LC())
		if epoch != h.CurrentEpoch() {
			fmt.Fprintln(d.out, "  (transaction belongs to a different VID epoch; its lines have settled)")
		}
	} else {
		v = vid.V(seq)
		fmt.Fprintf(d.out, "VID %d (hierarchy epoch %d, LC %d):\n", v, h.CurrentEpoch(), h.LC())
	}
	found := false
	for _, a := range h.Addrs() {
		for i := 0; i < d.nCaches(); i++ {
			for _, ln := range h.Versions(i, a) {
				if !ln.St.Speculative() || (ln.Mod != v && ln.High != v) {
					continue
				}
				role := "read-marked"
				if ln.Mod == v {
					role = "wrote"
				}
				fmt.Fprintf(d.out, "  %s line %#x in %s: %s\n", role, a, d.cacheName(i), ln.String())
				found = true
			}
		}
	}
	if !found {
		fmt.Fprintln(d.out, "  no resident speculative versions for this transaction")
	}
}

func (d *dbg) queryCore(n int) {
	h := d.hier()
	if d.isRun() && d.cur.idx >= 0 {
		if ev, ok := d.cur.lastCore[n]; ok {
			fmt.Fprintf(d.out, "core %d last event: %s (cycle %d)\n", n, evString(ev), ev.Cycle)
		} else {
			fmt.Fprintf(d.out, "core %d: no events since the checkpoint boundary\n", n)
		}
	}
	lines := 0
	for _, a := range h.Addrs() {
		for _, ln := range h.Versions(n, a) {
			fmt.Fprintf(d.out, "  %-10s %#x  word %#x\n", ln.String(), a, ln.Word(a))
			lines++
		}
	}
	fmt.Fprintf(d.out, "core %d L1: %d resident lines\n", n, lines)
}

func (d *dbg) diffCmd(a, b int64) error {
	var ha, hb *memsys.Hierarchy
	if d.isRun() {
		sa, err := d.snapAt(a)
		if err != nil {
			return err
		}
		sb, err := d.snapAt(b)
		if err != nil {
			return err
		}
		ha, hb = sa.h, sb.h
	} else {
		var err1, err2 error
		ha, _, err1 = d.doc.Check.Config.ReplayTo(d.steps, int(a))
		hb, _, err2 = d.doc.Check.Config.ReplayTo(d.steps, int(b))
		if ha == nil || hb == nil {
			return fmt.Errorf("replay failed: %v %v", err1, err2)
		}
	}
	seen := map[memsys.Addr]bool{}
	var addrs []memsys.Addr
	for _, x := range append(ha.Addrs(), hb.Addrs()...) {
		if !seen[x] {
			seen[x] = true
			addrs = append(addrs, x)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	changed := 0
	for _, la := range addrs {
		sa, _ := d.lineSig(ha, la)
		sb, _ := d.lineSig(hb, la)
		wa, wb := ha.PeekWord(la), hb.PeekWord(la)
		if sa == sb && wa == wb {
			continue
		}
		changed++
		fmt.Fprintf(d.out, "line %#x:\n", la)
		if sa != sb {
			fmt.Fprintf(d.out, "  @%d: %s\n  @%d: %s\n", a, sa, b, sb)
		}
		if wa != wb {
			fmt.Fprintf(d.out, "  committed word: %#x -> %#x\n", wa, wb)
		}
	}
	fmt.Fprintf(d.out, "%d lines differ between %d and %d\n", changed, a, b)
	return nil
}

// snapAt captures the state at cycle n without moving the current position.
func (d *dbg) snapAt(n int64) (*snap, error) {
	base := d.doc.Run.Engine.CumCycles
	if n < base {
		return nil, fmt.Errorf("cycle %d predates the checkpoint (cycle %d)", n, base)
	}
	if n == base {
		sys, err := ckpt.RestoreRun(d.doc)
		if err != nil {
			return nil, err
		}
		return &snap{cycle: base, idx: -1, h: sys.Mem}, nil
	}
	s, err := d.runUntil(func(ev engine.DebugEvent, _ *memsys.Hierarchy, _ int) bool {
		return ev.Cycle >= n
	})
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("run ended at cycle %d, before cycle %d", d.endSeen, n)
	}
	return s, nil
}
