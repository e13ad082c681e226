package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmtx/internal/metrics"
	"hmtx/internal/prof"
)

// fixtures writes one of each artifact kind to dir and returns the paths.
func fixtures(t testing.TB, dir string) (series, conflicts, hist, profile string) {
	t.Helper()

	sm := metrics.NewSampler(100)
	var commits, val uint64
	sm.Probe("txs_committed", func() uint64 { return commits })
	sm.Probe("aborts", func() uint64 { return 0 })
	sm.Probe("validation_cycles", func() uint64 { return val })
	sm.Probe("commit_cycles", func() uint64 { return 40 })
	sm.Probe("spec_lines", func() uint64 { return 7 })
	for i := int64(1); i <= 5; i++ {
		commits, val = uint64(i), uint64(i*300)
		sm.Tick(i * 100)
	}
	sdoc := metrics.SeriesDoc{Schema: metrics.SeriesSchema, Scale: 1, Cores: 4,
		Series: []metrics.Series{sm.Snapshot("bench/hmtx")}}

	rec := metrics.NewRecorder(100)
	rec.SetTime(50)
	rec.Record(1, 2, 0x40, metrics.EdgeConflict)
	rec.SetTime(80)
	rec.Record(2, 3, 0x40, metrics.EdgeConflict)
	cdoc := metrics.ConflictDoc{Schema: metrics.ConflictSchema, Scale: 1, Cores: 4,
		Graphs: []metrics.Graph{rec.Snapshot("bench/hmtx")}}

	l := metrics.NewLatHists()
	for i := uint64(1); i <= 100; i++ {
		l.Open.Observe(i * 10)
		l.CommitArb.Observe(i % 3)
	}
	hdoc := metrics.HistDoc{Schema: metrics.HistSchema, Scale: 1, Cores: 4,
		Histograms: []metrics.LabeledHists{l.Snapshot("bench/hmtx")}}

	pdoc := prof.Doc{Schema: prof.Schema, Scale: 1, Cores: 4, Profiles: []prof.Profile{{
		Label: "bench/hmtx", Workload: "bench", System: "hmtx", Paradigm: "DOALL",
		Runs: 1, TotalCycles: 1000, CoreCycles: 1000,
		Buckets: map[string]int64{"compute": 1000},
		Cores:   []prof.CoreProfile{{Core: 0, Cycles: 1000, Buckets: map[string]int64{"compute": 1000}}},
		HotLines: []prof.LineProfile{
			{Addr: "0x40", Conflicts: 2, AccessCycles: 500, WastedCycles: 100},
			{Addr: "0x80", Conflicts: 1, AccessCycles: 200},
		},
	}}}

	write := func(name string, v any) string {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("series.json", sdoc), write("conflicts.json", cdoc),
		write("hist.json", hdoc), write("prof.json", pdoc)
}

// TestReportHTML verifies the HTML report: all four sections render, the §6
// validation-vs-commit chart is present, the output is self-contained, and
// byte-identical across runs.
func TestReportHTML(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, pp := fixtures(t, dir)
	render := func(out string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-series", sp, "-conflicts", cp, "-hist", hp, "-prof", pp, "-o", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	html := render(filepath.Join(dir, "a.html"))
	for _, want := range []string{
		"<h2>Time series</h2>",
		"Validation vs commit cycles",
		"Commit throughput and aborts",
		"<polyline",
		"<h2>Conflicts</h2>",
		"2 abort edges",
		"<h2>Latency</h2>",
		"open_to_commit",
		"<h2>Per-line heatmap</h2>",
		"rgba(214,39,40,0.60)",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(html, banned) {
			t.Errorf("report not self-contained: found %q", banned)
		}
	}
	if html2 := render(filepath.Join(dir, "b.html")); html2 != html {
		t.Error("HTML differs across identical runs")
	}
}

// TestReportText verifies the plain-text mode renders every section, a
// profile in full: bucket table, heatmap and re-executed transactions.
func TestReportText(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, pp := fixtures(t, dir)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-series", sp, "-conflicts", cp, "-hist", hp, "-prof", pp}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"time series: bench/hmtx", "conflict graph: bench/hmtx",
		"latency histograms: bench/hmtx", "profile: bench/hmtx (DOALL", "compute  1000",
		"contention heatmap (top lines):", "0x40  2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestDiff verifies the diff subcommand on each schema and its schema
// mismatch error.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, pp := fixtures(t, dir)

	for _, tc := range []struct {
		path, want string
	}{
		{sp, "txs_committed"},
		{cp, "A edges"},
		{hp, "p50 B/A"},
		{pp, "diff: bench/hmtx -> bench/hmtx"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"diff", tc.path, tc.path}, &stdout, &stderr); code != 0 {
			t.Fatalf("diff exit %d, stderr: %s", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("diff of %s missing %q:\n%s", tc.path, tc.want, stdout.String())
		}
		// Self-diff of a series must show 1.00x ratios.
		if tc.path == sp && !strings.Contains(stdout.String(), "1.00x") {
			t.Errorf("series self-diff missing 1.00x:\n%s", stdout.String())
		}
	}

	// Two one-entry documents compare directly whatever their labels: one
	// hmtxsim run against another, e.g. -system hmtx against smtx-max.
	for _, tc := range []struct {
		path string
		want []string
	}{
		{sp, []string{"bench/hmtx -> bench/smtx-max (A: 5 samples, B: 5 samples)", "txs_committed", "1.00x"}},
		{cp, []string{"bench/hmtx -> bench/smtx-max  2"}},
		{hp, []string{"bench/hmtx -> bench/smtx-max\n", "open_to_commit", "p50 B/A"}},
	} {
		other := relabel(t, tc.path, "bench/smtx-max")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"diff", tc.path, other}, &stdout, &stderr); code != 0 {
			t.Fatalf("diff %s: exit %d, stderr: %s", other, code, stderr.String())
		}
		out := stdout.String()
		if strings.Contains(out, "only in") {
			t.Errorf("one-entry diff of %s paired by label:\n%s", tc.path, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("one-entry diff of %s missing %q:\n%s", tc.path, want, out)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"diff", sp, hp}, &stdout, &stderr); code != 1 {
		t.Fatalf("schema mismatch: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "schema mismatch") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// A checkpoint is not a metric document: the diff must refuse it and
	// point at hmtxdbg rather than report an unknown schema.
	kp := filepath.Join(dir, "ckpt.json")
	if err := os.WriteFile(kp, []byte(`{"schema": "hmtx-ckpt/v1", "kind": "run"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"diff", kp, kp}, &stdout, &stderr); code != 1 {
		t.Fatalf("ckpt diff: exit %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "hmtxdbg") || !strings.Contains(msg, "hmtx-ckpt/v1") {
		t.Errorf("ckpt diff stderr should point at hmtxdbg, got %q", msg)
	}

	// A measurement document is compared byte for byte: the diff must say
	// so rather than report an unsupported schema.
	bp := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(bp, []byte(`{"schema": "hmtx-bench/v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"diff", bp, bp}, &stdout, &stderr); code != 1 {
		t.Fatalf("hmtx-bench/v1 diff: exit %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "cmp or diff -u") || !strings.Contains(msg, "hmtx-bench/v1") {
		t.Errorf("hmtx-bench/v1 diff stderr should point at cmp or diff -u, got %q", msg)
	}
}

// relabel copies the one-entry document at path with its entry's label
// "bench/hmtx" replaced by label.
func relabel(t *testing.T, path, label string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(filepath.Dir(path), strings.ReplaceAll(label, "/", "_")+"-"+filepath.Base(path))
	if err := os.WriteFile(out, bytes.ReplaceAll(buf, []byte(`"bench/hmtx"`), []byte(`"`+label+`"`)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBadInput verifies argument and file errors.
func TestBadInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-series", "/nonexistent.json"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run([]string{"diff", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("diff one arg: exit %d, want 2", code)
	}

	// A series document with the wrong schema tag must be rejected.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hmtx-prof/v1","series":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-series", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("wrong schema: exit %d, want 1", code)
	}
}

// TestCorruptSeriesRejected verifies that a series whose columns do not match
// its cycle count is rejected with an error naming the series and column, by
// both the report and the diff path, instead of panicking in a renderer.
func TestCorruptSeriesRejected(t *testing.T) {
	dir := t.TempDir()
	good, _, _, _ := fixtures(t, dir)
	buf, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*metrics.Series){
		"long-columns": func(s *metrics.Series) {
			for i := range s.Cols {
				s.Cols[i].Values = append(s.Cols[i].Values, 1, 2, 3)
			}
		},
		"short-cycles": func(s *metrics.Series) { s.Cycles = s.Cycles[:2] },
	} {
		var doc metrics.SeriesDoc
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatal(err)
		}
		corrupt(&doc.Series[0])
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, name+".json")
		if err := os.WriteFile(bad, out, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"-series", bad},
			{"-series", bad, "-o", filepath.Join(dir, name+".html")},
			{"diff", bad, good},
			{"diff", good, bad},
		} {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Errorf("%s %v: exit %d, want 1", name, args, code)
			}
			if msg := stderr.String(); !strings.Contains(msg, `series "bench/hmtx" column "txs_committed"`) {
				t.Errorf("%s %v: stderr %q does not name the series and column", name, args, msg)
			}
		}
	}
}

// writeProfDoc writes the given profiles as one hmtx-prof/v1 document.
func writeProfDoc(t *testing.T, dir, name string, profiles ...prof.Profile) string {
	t.Helper()
	buf, err := json.Marshal(prof.Doc{Schema: prof.Schema, Scale: 1, Cores: 2, Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// profileWith collects one single-core run charged to the given buckets.
func profileWith(label string, buckets map[prof.Bucket]int64) prof.Profile {
	c := prof.New()
	var total int64
	for _, b := range prof.Buckets() {
		if v := buckets[b]; v != 0 {
			c.Charge(0, 1, b, v)
			total += v
		}
	}
	c.CoreDone(0, total)
	c.RunEnd(total, false, 1)
	workload, system, _ := strings.Cut(label, "/")
	return c.Snapshot(workload, system, "DOALL", 0)
}

// TestProfShowDiffFold verifies the three profile views: the full text
// report, a direct diff of two one-profile documents, and folded stacks.
func TestProfShowDiffFold(t *testing.T) {
	dir := t.TempDir()
	a := writeProfDoc(t, dir, "a.json",
		profileWith("wl/hmtx", map[prof.Bucket]int64{prof.Compute: 100, prof.Commit: 30}))
	b := writeProfDoc(t, dir, "b.json",
		profileWith("wl/smtx-max", map[prof.Bucket]int64{prof.Compute: 100, prof.Validation: 250}))

	var out, errb bytes.Buffer
	if code := run([]string{"-prof", a}, &out, &errb); code != 0 {
		t.Fatalf("-prof exited %d: %s", code, errb.String())
	}
	for _, frag := range []string{"profile: wl/hmtx", "compute", "commit", "core0"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("-prof output missing %q:\n%s", frag, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"diff", a, b}, &out, &errb); code != 0 {
		t.Fatalf("diff exited %d: %s", code, errb.String())
	}
	for _, frag := range []string{"diff: wl/hmtx -> wl/smtx-max", "validation", "+250", "commit", "-30"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("diff output missing %q:\n%s", frag, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"fold", a}, &out, &errb); code != 0 {
		t.Fatalf("fold exited %d: %s", code, errb.String())
	}
	if want := "wl/hmtx;core0;compute 100\nwl/hmtx;core0;commit 30\n"; out.String() != want {
		t.Errorf("fold output %q, want %q", out.String(), want)
	}
}

// TestProfDiffPairsByLabel verifies that documents of several profiles pair
// by label in A's order, and that a label on one side only is reported as a
// row rather than dropped or refused.
func TestProfDiffPairsByLabel(t *testing.T) {
	dir := t.TempDir()
	p1 := profileWith("w1/hmtx", map[prof.Bucket]int64{prof.Compute: 10})
	p2 := profileWith("w2/hmtx", map[prof.Bucket]int64{prof.Compute: 20})
	p2b := profileWith("w2/hmtx", map[prof.Bucket]int64{prof.Compute: 25})
	p1b := profileWith("w1/hmtx", map[prof.Bucket]int64{prof.Compute: 15})
	p3 := profileWith("w3/hmtx", map[prof.Bucket]int64{prof.Compute: 30})

	a := writeProfDoc(t, dir, "a.json", p1, p2)
	b := writeProfDoc(t, dir, "b.json", p2b, p1b)
	var out, errb bytes.Buffer
	if code := run([]string{"diff", a, b}, &out, &errb); code != 0 {
		t.Fatalf("diff exited %d: %s", code, errb.String())
	}
	want := prof.DiffText(&p1, &p1b) + "\n" + prof.DiffText(&p2, &p2b)
	if out.String() != want {
		t.Errorf("diff output:\n%s\nwant:\n%s", out.String(), want)
	}

	c := writeProfDoc(t, dir, "c.json", p3, p1b)
	out.Reset()
	if code := run([]string{"diff", a, c}, &out, &errb); code != 0 {
		t.Fatalf("diff with unmatched labels exited %d: %s", code, errb.String())
	}
	want = prof.DiffText(&p1, &p1b) + "\nw2/hmtx: only in A\n\nw3/hmtx: only in B\n"
	if out.String() != want {
		t.Errorf("diff with unmatched labels:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestProfBadUsageAndSchema verifies fold's usage errors and that every
// profile reader refuses a document of another schema.
func TestProfBadUsageAndSchema(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"fold"}, {"fold", "a.json", "b.json"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hmtx-bench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-prof", bad}, {"fold", bad}} {
		errb.Reset()
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: wrong schema exited %d, want 1", args, code)
		}
		if !strings.Contains(errb.String(), "schema") {
			t.Errorf("%v: error does not mention the schema: %s", args, errb.String())
		}
	}
}

// TestTamperedProfRejected verifies that a profile whose buckets no longer
// partition its core cycles is refused by every profile reader.
func TestTamperedProfRejected(t *testing.T) {
	dir := t.TempDir()
	good := writeProfDoc(t, dir, "good.json",
		profileWith("wl/hmtx", map[prof.Bucket]int64{prof.Compute: 100, prof.Commit: 30}))
	p := profileWith("wl/hmtx", map[prof.Bucket]int64{prof.Compute: 100, prof.Commit: 30})
	p.Cores[0].Buckets["commit"] = 31
	p.Buckets["commit"] = 31
	bad := writeProfDoc(t, dir, "bad.json", p)
	for _, args := range [][]string{
		{"-prof", bad},
		{"-prof", bad, "-o", filepath.Join(dir, "bad.html")},
		{"diff", good, bad},
		{"diff", bad, good},
		{"fold", bad},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "buckets sum to 131, cycles 130") {
			t.Errorf("%v: stderr %q does not name the broken sum", args, msg)
		}
	}
}

// FuzzLoaders feeds arbitrary bytes to every document reader as each of the
// four metric schemas, through the text report, the HTML report, diff (the
// document against itself) and fold. Each must end in an exit status, never
// a panic.
func FuzzLoaders(f *testing.F) {
	dir := f.TempDir()
	sp, cp, hp, pp := fixtures(f, dir)
	for _, p := range []string{sp, cp, hp, pp} {
		buf, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte(`{"schema":"hmtx-prof/v1","profiles":[{"per_core":[{"core":0}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		doc := filepath.Join(dir, "doc.json")
		if err := os.WriteFile(doc, data, 0o644); err != nil {
			t.Fatal(err)
		}
		html := filepath.Join(dir, "report.html")
		for _, flag := range []string{"-series", "-conflicts", "-hist", "-prof"} {
			for _, args := range [][]string{{flag, doc}, {flag, doc, "-o", html}} {
				run(args, io.Discard, io.Discard)
			}
		}
		run([]string{"diff", doc, doc}, io.Discard, io.Discard)
		run([]string{"fold", doc}, io.Discard, io.Discard)
	})
}
