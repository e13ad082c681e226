// Command hmtxtrace summarises a Chrome trace_event JSON file produced by
// hmtxsim -trace-out: events per category, the hottest cache lines, the
// abort-cause attribution, transaction commit-latency statistics, and the
// per-VID attempt ledger (aborted vs committed attempts, rebuilt by feeding
// the trace back through the obs.TxCollector).
//
// Usage:
//
//	hmtxtrace [-top N] [-from CYC] [-to CYC] [-prof profile.json] trace.json
//
// -from and -to restrict every analysis to the simulated-cycle window
// [from, to] — the way to zoom a long trace onto one abort storm or one
// commit stall (find the cycle of interest with hmtxdbg, then filter the
// trace to it). A complete event (tx_commit) is windowed on the cycle it
// fired, ts+dur.
//
// With -prof, the trace-derived ledger is cross-checked against the
// profile's re-execution records (hmtx-prof/v1, DESIGN.md §13): the two
// instruments observe aborted attempts independently — the tracer from the
// event stream, the profiler from its charge sites — so any per-VID
// disagreement means one of them lost an attempt. A mismatch exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceEvent mirrors the fields obs.ChromeSink writes.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Args struct {
		Addr string `json:"addr"`
		VID  uint64 `json:"vid"`
		Arg  uint64 `json:"arg"`
		Note string `json:"note"`
	} `json:"args"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmtxtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "number of hottest lines to show")
	from := fs.Int64("from", 0, "ignore events before this simulated cycle")
	to := fs.Int64("to", 0, "ignore events after this simulated cycle (0 = end of trace)")
	profPath := fs.String("prof", "", "hmtx-prof/v1 profile to cross-check per-VID aborted attempts against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hmtxtrace [-top N] [-from CYC] [-to CYC] [-prof profile.json] trace.json")
		return 2
	}
	if *to > 0 && *to < *from {
		fmt.Fprintln(stderr, "hmtxtrace: -to is before -from")
		return 2
	}
	if *top < 0 {
		fmt.Fprintln(stderr, "hmtxtrace: -top is negative")
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmtxtrace: "+format+"\n", a...)
		return 1
	}

	buf, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fail("parsing %s: %v", fs.Arg(0), err)
	}
	evs := doc.TraceEvents
	for i := range evs {
		if evs[i].TS < 0 || evs[i].Dur < 0 {
			return fail("%s: event %d has a negative ts or dur (%d, %d)", fs.Arg(0), i, evs[i].TS, evs[i].Dur)
		}
	}
	total := len(evs)
	if *from > 0 || *to > 0 {
		var kept []traceEvent
		for i := range evs {
			cyc := evs[i].TS
			if evs[i].Ph == "X" {
				cyc += evs[i].Dur
			}
			if cyc < *from || (*to > 0 && cyc > *to) {
				continue
			}
			kept = append(kept, evs[i])
		}
		evs = kept
		toStr := "end"
		if *to > 0 {
			toStr = fmt.Sprintf("%d", *to)
		}
		fmt.Fprintf(stdout, "window: cycles %d..%s (%d of %d events)\n", *from, toStr, len(evs), total)
	}

	// Events per category.
	perCat := make(map[string]uint64)
	for i := range evs {
		perCat[evs[i].Cat]++
	}
	cats := make([]string, 0, len(perCat))
	for c := range perCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	var ct stats.Table
	ct.Add("category", "events")
	for _, c := range cats {
		ct.AddF(c, perCat[c])
	}
	ct.AddF("total", len(evs))
	fmt.Fprintf(stdout, "trace: %s (%d events)\n\n%s\n", fs.Arg(0), len(evs), ct.String())

	// Hottest lines: events per line address, count desc, address asc.
	type lineCount struct {
		addr  uint64
		count uint64
	}
	perLine := make(map[uint64]uint64)
	for i := range evs {
		if a := evs[i].Args.Addr; a != "" {
			if addr, err := strconv.ParseUint(a, 0, 64); err == nil {
				perLine[addr]++
			}
		}
	}
	lines := make([]lineCount, 0, len(perLine))
	for a, n := range perLine {
		lines = append(lines, lineCount{a, n})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].count != lines[j].count {
			return lines[i].count > lines[j].count
		}
		return lines[i].addr < lines[j].addr
	})
	if len(lines) > 0 {
		n := *top
		if n > len(lines) {
			n = len(lines)
		}
		var lt stats.Table
		lt.Add("line", "events")
		for _, l := range lines[:n] {
			lt.AddF(fmt.Sprintf("%#x", l.addr), l.count)
		}
		fmt.Fprintf(stdout, "hottest lines (top %d of %d):\n\n%s\n", n, len(lines), lt.String())
	}

	// Abort attribution and commit-latency statistics.
	aborts := make(map[string]uint64)
	var nAborts uint64
	var nCommits, durSum, durMax uint64
	for i := range evs {
		switch evs[i].Name {
		case "tx_abort":
			aborts[obs.AbortClass(evs[i].Args.Note)]++
			nAborts++
		case "tx_commit":
			nCommits++
			d := uint64(evs[i].Dur)
			durSum += d
			if d > durMax {
				durMax = d
			}
		}
	}
	var tt stats.Table
	tt.Add("transactions", "value")
	tt.AddF("commits", nCommits)
	if nCommits > 0 {
		tt.AddF("mean commit latency (cycles)", fmt.Sprintf("%.1f", float64(durSum)/float64(nCommits)))
		tt.AddF("max commit latency (cycles)", durMax)
	}
	tt.AddF("aborts", nAborts)
	for _, class := range obs.AbortClasses() {
		if n, ok := aborts[class]; ok {
			tt.AddF("  aborts: "+class, n)
		}
	}
	fmt.Fprint(stdout, tt.String())

	// Per-VID attempt ledger: replay the transaction events through the real
	// collector, so the attempt/abort semantics are obs.TxCollector's, not a
	// reimplementation that could drift.
	col := obs.NewTxCollector()
	for i := range evs {
		e, ok := collectorEvent(&evs[i])
		if !ok {
			continue
		}
		col.Emit(e)
	}
	attempts := attemptLedger(col)
	if len(attempts) > 0 {
		var at stats.Table
		at.Add("vid", "aborted attempts", "committed", "total attempts")
		for _, a := range attempts {
			at.AddF(a.vid, a.aborted, a.committed, a.aborted+a.committed)
		}
		fmt.Fprintf(stdout, "\nre-executed transactions (trace-derived):\n\n%s", at.String())
	}

	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			return fail("%v", err)
		}
		doc, err := prof.ReadDoc(f)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
		if len(doc.Profiles) == 0 {
			return fail("%s has no profiles", *profPath)
		}
		p := &doc.Profiles[0]
		if bad := crossCheck(attempts, p); len(bad) > 0 {
			fmt.Fprintf(stdout, "\ncross-check against %s (%s): MISMATCH\n", *profPath, p.Label)
			for _, m := range bad {
				fmt.Fprintf(stdout, "  %s\n", m)
			}
			return 1
		}
		fmt.Fprintf(stdout, "\ncross-check against %s (%s): ok (%d re-executed VID(s) agree)\n",
			*profPath, p.Label, len(attempts))
	}
	return 0
}

// collectorEvent maps one Chrome record back to the obs.Event the sink
// serialised, for the kinds the transaction collector consumes. tx_commit is
// a complete ("X") event whose ts was shifted back by its duration, so the
// commit cycle is ts+dur and the latency is the duration itself.
func collectorEvent(ev *traceEvent) (obs.Event, bool) {
	e := obs.Event{Core: 0, VID: ev.Args.VID, Arg: ev.Args.Arg, Cycle: ev.TS}
	switch ev.Name {
	case "tx_begin":
		e.Kind = obs.KTxBegin
	case "tx_commit":
		e.Kind = obs.KTxCommit
		e.Cycle = ev.TS + ev.Dur
		e.Arg = uint64(ev.Dur)
	case "tx_abort":
		e.Kind = obs.KTxAbort
		e.Note = ev.Args.Note
	case "commit_resume":
		e.Kind = obs.KCommitResume
	default:
		return obs.Event{}, false
	}
	return e, true
}

// vidAttempts is one VID's attempt counts; only VIDs with at least one
// rolled-back attempt are reported (a clean first-try commit is the
// uninteresting common case, and it is what the profiler records too).
type vidAttempts struct {
	vid                uint64
	aborted, committed int
}

// attemptLedger aggregates the collector's records per VID, ascending.
func attemptLedger(col *obs.TxCollector) []vidAttempts {
	per := make(map[uint64]*vidAttempts)
	vids := []uint64{}
	get := func(vid uint64) *vidAttempts {
		a, ok := per[vid]
		if !ok {
			a = &vidAttempts{vid: vid}
			per[vid] = a
			vids = append(vids, vid)
		}
		return a
	}
	for _, t := range col.Aborted() {
		get(t.VID).aborted++
	}
	for _, t := range col.Committed() {
		get(t.VID).committed++
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	out := []vidAttempts{}
	for _, v := range vids {
		if a := per[v]; a.aborted > 0 {
			out = append(out, *a)
		}
	}
	return out
}

// crossCheck compares the trace-derived ledger with the profile's
// re-execution records and returns one message per disagreement. The two
// must agree VID for VID: same set of re-executed VIDs, same aborted-attempt
// counts.
func crossCheck(attempts []vidAttempts, p *prof.Profile) []string {
	var bad []string
	traceBy := make(map[uint64]int, len(attempts))
	for _, a := range attempts {
		traceBy[a.vid] = a.aborted
	}
	profBy := make(map[uint64]int, len(p.ReexecutedTxs))
	for _, t := range p.ReexecutedTxs {
		profBy[t.VID] = t.AbortedAttempts
		got, ok := traceBy[t.VID]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("vid %d: profile has %d aborted attempt(s), trace has none", t.VID, t.AbortedAttempts))
		case got != t.AbortedAttempts:
			bad = append(bad, fmt.Sprintf("vid %d: profile has %d aborted attempt(s), trace has %d", t.VID, t.AbortedAttempts, got))
		}
	}
	for _, a := range attempts {
		if _, ok := profBy[a.vid]; !ok {
			bad = append(bad, fmt.Sprintf("vid %d: trace has %d aborted attempt(s), profile has none", a.vid, a.aborted))
		}
	}
	return bad
}
