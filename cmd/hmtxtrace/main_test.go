package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/workloads"
)

// writeTrace generates a Chrome trace via the real sink, so the summariser
// is tested against exactly what hmtxsim -trace-out produces.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.CatAll, 0)
	tr.Attach(obs.NewChromeSink(f))
	for _, e := range []obs.Event{
		{Kind: obs.KStep, Cycle: 10},
		{Kind: obs.KBusRequest, Core: 0, Addr: 0x1000, Note: "load"},
		{Kind: obs.KBusRequest, Core: 1, Addr: 0x1000, Note: "store"},
		{Kind: obs.KBusRequest, Core: 1, Addr: 0x2000, Note: "load"},
		{Kind: obs.KTxCommit, Cycle: 50, Core: 0, VID: 1, Arg: 40},
		{Kind: obs.KTxCommit, Cycle: 90, Core: 1, VID: 2, Arg: 60},
		{Kind: obs.KTxAbort, Cycle: 120, Core: 1, VID: 3, Note: "store vid 3 to line 0x1000 already accessed by vid 4"},
		{Kind: obs.KTxAbort, Cycle: 120, Core: 0, VID: 3, Note: "speculative line overflowed the last-level cache (§5.4)"},
	} {
		tr.Fold(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarise(t *testing.T) {
	path := writeTrace(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-top", "2", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"7 events",
		"bus", "txn",
		"0x1000", // hottest line first
		"commits",
		"mean commit latency (cycles)  50.0",
		"aborts: conflict",
		"aborts: overflow",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// 0x1000 (2 events) must rank above 0x2000 (1 event).
	if strings.Index(s, "0x1000") > strings.Index(s, "0x2000") {
		t.Errorf("hottest-line order wrong:\n%s", s)
	}
}

// TestCycleWindow filters the TestSummarise trace (events at cycles 10, 50,
// 90 and 120; the commit events are complete events windowed on ts+dur, i.e.
// their commit cycle) down to [40, 100]: the two commits survive, the bus
// events and aborts do not.
func TestCycleWindow(t *testing.T) {
	path := writeTrace(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-from", "40", "-to", "100", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"window: cycles 40..100 (2 of 7 events)",
		"2 events",
		"mean commit latency (cycles)  50.0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("windowed summary missing %q:\n%s", want, s)
		}
	}
	for _, reject := range []string{"bus", "aborts: conflict", "0x1000"} {
		if strings.Contains(s, reject) {
			t.Errorf("windowed summary still contains %q:\n%s", reject, s)
		}
	}

	// An open right edge keeps everything from -from on.
	out.Reset()
	if code := run([]string{"-from", "100", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "window: cycles 100..end (2 of 7 events)") {
		t.Errorf("open-ended window wrong:\n%s", out.String())
	}

	// An inverted window is a usage error.
	if code := run([]string{"-from", "100", "-to", "40", path}, &out, &errb); code != 2 {
		t.Errorf("inverted window: exit %d, want 2", code)
	}
}

func TestBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d", code)
	}
	if code := run([]string{"/nonexistent/trace.json"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("bad JSON: exit %d", code)
	}
	errb.Reset()
	if code := run([]string{"-top", "-1", writeTrace(t)}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "-top is negative") {
		t.Errorf("negative -top: exit %d, stderr %q; want 2 naming -top", code, errb.String())
	}
	for _, ev := range []string{
		`{"name":"tx_commit","cat":"txn","ph":"X","ts":10,"dur":-9,"args":{"vid":1}}`,
		`{"name":"tx_begin","cat":"txn","ph":"i","ts":-1,"args":{"vid":1}}`,
	} {
		doc := `{"traceEvents":[{"name":"tx_begin","cat":"txn","ph":"i","ts":0,"args":{"vid":1}},` + ev + `]}`
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errb.Reset()
		if code := run([]string{bad}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "event 1 has a negative ts or dur") {
			t.Errorf("%s: exit %d, stderr %q; want 1 naming event 1", ev, code, errb.String())
		}
	}
}

// writeAbortTrace emits a run where VID 3 is rolled back twice before its
// third attempt commits, and VID 4 is rolled back once, through the real
// sink — so the ledger rebuild is tested against real serialisation,
// including the commit event's ts-shifting.
func writeAbortTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.CatAll, 0)
	tr.Attach(obs.NewChromeSink(f))
	cycle := int64(100)
	for attempt := 0; attempt < 2; attempt++ {
		tr.Fold(obs.Event{Kind: obs.KTxBegin, Cycle: cycle, Core: 0, VID: 3})
		tr.Fold(obs.Event{Kind: obs.KTxBegin, Cycle: cycle, Core: 1, VID: 4})
		if attempt == 1 { // second time around, VID 4 commits before the abort
			tr.Fold(obs.Event{Kind: obs.KTxCommit, Cycle: cycle + 50, Core: 1, VID: 4, Arg: 50})
		}
		tr.Fold(obs.Event{Kind: obs.KTxAbort, Cycle: cycle + 80, Core: 0, VID: 3, Note: "store vid 3 to line 0x40 already accessed by vid 4"})
		cycle += 100
	}
	tr.Fold(obs.Event{Kind: obs.KTxBegin, Cycle: cycle, Core: 0, VID: 3})
	tr.Fold(obs.Event{Kind: obs.KTxCommit, Cycle: cycle + 60, Core: 0, VID: 3, Arg: 60})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeProf writes a one-profile hmtx-prof/v1 document.
func writeProf(t *testing.T, p prof.Profile) string {
	t.Helper()
	buf, err := json.Marshal(prof.Doc{Schema: prof.Schema, Profiles: []prof.Profile{p}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prof.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reexecProf is a profile whose re-execution records carry the given
// per-VID aborted-attempt counts.
func reexecProf(reexec ...prof.TxProfile) prof.Profile {
	return prof.Profile{Label: "wl/hmtx", ReexecutedTxs: reexec}
}

func TestAttemptLedger(t *testing.T) {
	path := writeAbortTrace(t)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "re-executed transactions (trace-derived)") {
		t.Fatalf("ledger table missing:\n%s", s)
	}
	// VID 3: 2 aborted + 1 committed = 3 attempts; VID 4: 1 aborted + 1
	// committed = 2. Match whole table rows so a column swap cannot pass.
	for _, want := range []string{"3    2", "4    1"} {
		if !strings.Contains(s, want) {
			t.Errorf("ledger missing row %q:\n%s", want, s)
		}
	}
}

func TestProfCrossCheck(t *testing.T) {
	trace := writeAbortTrace(t)

	good := writeProf(t, reexecProf(
		prof.TxProfile{VID: 3, AbortedAttempts: 2, WastedCycles: 160},
		prof.TxProfile{VID: 4, AbortedAttempts: 1, WastedCycles: 80},
	))
	var out, errb bytes.Buffer
	if code := run([]string{"-prof", good, trace}, &out, &errb); code != 0 {
		t.Fatalf("agreeing cross-check failed (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "cross-check") || !strings.Contains(out.String(), "ok (2 re-executed VID(s) agree)") {
		t.Errorf("cross-check verdict missing:\n%s", out.String())
	}

	// Wrong count for VID 3 and a VID the trace never aborted: both named.
	bad := writeProf(t, reexecProf(
		prof.TxProfile{VID: 3, AbortedAttempts: 1},
		prof.TxProfile{VID: 9, AbortedAttempts: 1},
	))
	out.Reset()
	if code := run([]string{"-prof", bad, trace}, &out, &errb); code != 1 {
		t.Fatalf("disagreeing cross-check: exit %d, want 1", code)
	}
	s := out.String()
	for _, want := range []string{
		"MISMATCH",
		"vid 3: profile has 1 aborted attempt(s), trace has 2",
		"vid 9: profile has 1 aborted attempt(s), trace has none",
		"vid 4: trace has 1 aborted attempt(s), profile has none",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("mismatch report missing %q:\n%s", want, s)
		}
	}

	// A profile whose buckets do not partition its core cycles is refused
	// before any cross-check.
	tampered := reexecProf(prof.TxProfile{VID: 3, AbortedAttempts: 2}, prof.TxProfile{VID: 4, AbortedAttempts: 1})
	tampered.CoreCycles = 100
	tampered.Cores = []prof.CoreProfile{{Core: 0, Cycles: 100, Buckets: map[string]int64{"compute": 99}}}
	tampered.Buckets = map[string]int64{"compute": 99}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-prof", writeProf(t, tampered), trace}, &out, &errb); code != 1 {
		t.Fatalf("tampered profile: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "buckets sum to 99, cycles 100") {
		t.Errorf("tampered profile stderr %q does not name the broken sum", errb.String())
	}
}

// traceSeed is one FuzzTraceLoader seed: a trace document assembled from
// stages of a real one.
type traceSeed struct {
	name string
	data []byte
}

// stagedSeed builds a seed from alternating stage descriptions and the bytes
// each stage appends, in the order a reader follows the document.
func stagedSeed(name string, stages ...any) traceSeed {
	s := traceSeed{name: name}
	for i := 1; i < len(stages); i += 2 {
		s.data = append(s.data, stages[i].([]byte)...)
	}
	return s
}

// realRun runs 052.alvinn without SLAs under hmtx, which aborts, tracing
// every category as hmtxsim -trace-out does and profiling it. It returns the
// trace's event lines (ChromeSink writes one per line between its header and
// footer) and the path of the run's hmtx-prof/v1 document.
func realRun(tb testing.TB) (lines [][]byte, profPath string) {
	tb.Helper()
	spec, err := workloads.ByName("052.alvinn")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Mem.SLAEnabled = false
	sys := engine.New(cfg)
	var buf bytes.Buffer
	tr := obs.NewTracer(obs.CatAll, 0)
	tr.Attach(obs.NewChromeSink(&buf))
	sys.SetTracer(tr)
	sys.SetProf(prof.New())
	loop := spec.New(1)
	loop.Setup(sys.Mem)
	hmtx.Run(sys, loop, spec.Paradigm, 4)
	if err := tr.Close(); err != nil {
		tb.Fatal(err)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(buf.String(), chromeHeader), chromeFooter)
	for _, l := range strings.Split(body, ",\n") {
		lines = append(lines, []byte(l))
	}
	profPath = filepath.Join(tb.TempDir(), "prof.json")
	pdoc := prof.Doc{Schema: prof.Schema, Profiles: []prof.Profile{sys.Prof().Snapshot(spec.Name, "hmtx", spec.Paradigm.String(), 0)}}
	out, err := json.Marshal(pdoc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(profPath, out, 0o644); err != nil {
		tb.Fatal(err)
	}
	return lines, profPath
}

const (
	chromeHeader = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
	chromeFooter = "\n]}\n"
)

// events joins event lines as ChromeSink separates them.
func events(lines [][]byte) []byte { return bytes.Join(lines, []byte(",\n")) }

// named returns the first n lines whose event has one of the names.
func named(lines [][]byte, n int, names ...string) [][]byte {
	var out [][]byte
	for _, l := range lines {
		for _, name := range names {
			if len(out) < n && bytes.HasPrefix(l, []byte(`{"name":"`+name+`"`)) {
				out = append(out, l)
			}
		}
	}
	return out
}

// traceSeeds stages seeds from a real trace: its opening, its transaction
// lifecycle with commits and aborts, and the corruptions a reader must
// refuse without panicking.
func traceSeeds(lines [][]byte) []traceSeed {
	txn := named(lines, 40, "tx_begin", "tx_commit", "tx_abort", "commit_resume")
	commit := named(lines, 1, "tx_commit")[0]
	return []traceSeed{
		stagedSeed("opening",
			"the header ChromeSink writes", []byte(chromeHeader),
			"the run's first 24 events: run_start, begins, bus and SLA traffic", events(lines[:24]),
			"the footer", []byte(chromeFooter)),
		stagedSeed("transactions",
			"the header", []byte(chromeHeader),
			"the first 40 transaction events: begins, complete commits, conflict aborts", events(txn),
			"the footer", []byte(chromeFooter)),
		stagedSeed("negative duration",
			"the header", []byte(chromeHeader),
			"a real begin and commit, the commit's duration negated",
			events([][]byte{named(lines, 1, "tx_begin")[0], bytes.Replace(commit, []byte(`"dur":`), []byte(`"dur":-`), 1)}),
			"the footer", []byte(chromeFooter)),
		stagedSeed("truncated",
			"the header", []byte(chromeHeader),
			"the opening events, cut inside the last one", events(lines[:8])[:len(events(lines[:8]))-20]),
	}
}

// FuzzTraceLoader feeds bytes to hmtxtrace as the trace file, plain, through
// a cycle window, with -top and with a real -prof profile: every run must exit
// 0, 1 or 2 and say something, never panic.
func FuzzTraceLoader(f *testing.F) {
	lines, profPath := realRun(f)
	for _, s := range traceSeeds(lines) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{path},
			{"-from", "100", "-to", "5000", path},
			{"-top", "1", path},
			{"-top", "0", "-prof", profPath, path},
		} {
			var out, errb bytes.Buffer
			code := run(args, &out, &errb)
			if code < 0 || code > 2 || out.Len()+errb.Len() == 0 {
				t.Fatalf("%v: exit %d with stdout %q, stderr %q", args, code, out.String(), errb.String())
			}
		}
	})
}

// TestTraceSeeds: the staged seeds come from a real run (the opening starts
// with run_start, the transaction stage holds commits and aborts) and each
// gets the exit status its content calls for.
func TestTraceSeeds(t *testing.T) {
	lines, _ := realRun(t)
	want := map[string]int{"opening": 0, "transactions": 0, "negative duration": 1, "truncated": 1}
	for _, s := range traceSeeds(lines) {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{path}, &out, &errb); code != want[s.name] {
			t.Errorf("%s: exit %d, want %d; stderr %s", s.name, code, want[s.name], errb.String())
		}
		if s.name == "negative duration" && !strings.Contains(errb.String(), "event 1 has a negative ts or dur") {
			t.Errorf("negative duration seed: stderr %q does not name event 1", errb.String())
		}
		if s.name == "transactions" && !strings.Contains(out.String(), "aborts: conflict") {
			t.Errorf("transactions seed has no conflict abort:\n%s", out.String())
		}
	}
	if !bytes.HasPrefix(lines[0], []byte(`{"name":"run_start"`)) {
		t.Errorf("real trace opens with %s, want run_start", lines[0])
	}
}
