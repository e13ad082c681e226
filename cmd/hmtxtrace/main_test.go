package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmtx/internal/obs"
	"hmtx/internal/prof"
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
	tr.SetTime(10)
	tr.Emit(obs.Event{Kind: obs.KBusRequest, Core: 0, Addr: 0x1000, Note: "load"})
	tr.Emit(obs.Event{Kind: obs.KBusRequest, Core: 1, Addr: 0x1000, Note: "store"})
	tr.Emit(obs.Event{Kind: obs.KBusRequest, Core: 1, Addr: 0x2000, Note: "load"})
	tr.SetTime(50)
	tr.Emit(obs.Event{Kind: obs.KTxCommit, Core: 0, VID: 1, Arg: 40})
	tr.SetTime(90)
	tr.Emit(obs.Event{Kind: obs.KTxCommit, Core: 1, VID: 2, Arg: 60})
	tr.SetTime(120)
	tr.Emit(obs.Event{Kind: obs.KTxAbort, Core: 1, VID: 3, Note: "store vid 3 to line 0x1000 already accessed by vid 4"})
	tr.Emit(obs.Event{Kind: obs.KTxAbort, Core: 0, VID: 3, Note: "speculative line overflowed the last-level cache (§5.4)"})
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
		tr.SetTime(cycle)
		tr.Emit(obs.Event{Kind: obs.KTxBegin, Core: 0, VID: 3})
		tr.Emit(obs.Event{Kind: obs.KTxBegin, Core: 1, VID: 4})
		tr.SetTime(cycle + 50)
		if attempt == 1 { // second time around, VID 4 commits before the abort
			tr.Emit(obs.Event{Kind: obs.KTxCommit, Core: 1, VID: 4, Arg: 50})
		}
		tr.SetTime(cycle + 80)
		tr.Emit(obs.Event{Kind: obs.KTxAbort, Core: 0, VID: 3, Note: "store vid 3 to line 0x40 already accessed by vid 4"})
		cycle += 100
	}
	tr.SetTime(cycle)
	tr.Emit(obs.Event{Kind: obs.KTxBegin, Core: 0, VID: 3})
	tr.SetTime(cycle + 60)
	tr.Emit(obs.Event{Kind: obs.KTxCommit, Core: 0, VID: 3, Arg: 60})
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
