package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSystemsEndToEnd runs one small benchmark through each execution
// system and checks the human output, the exit status and the -stats-json
// document.
func TestRunSystemsEndToEnd(t *testing.T) {
	for _, system := range []string{"hmtx", "smtx-min", "seq"} {
		t.Run(system, func(t *testing.T) {
			sj := filepath.Join(t.TempDir(), "stats.json")
			var out, errb bytes.Buffer
			code := run([]string{"-bench", "052.alvinn", "-system", system, "-cores", "4", "-stats-json", sj}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			for _, want := range []string{"benchmark:", "cycles:", "hot-loop speedup:"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}

			buf, err := os.ReadFile(sj)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Schema string         `json:"schema"`
				Run    map[string]any `json:"run"`
				Stats  map[string]any `json:"stats"`
			}
			if err := json.Unmarshal(buf, &doc); err != nil {
				t.Fatalf("invalid stats JSON: %v", err)
			}
			if doc.Schema != "hmtx-run/v1" {
				t.Errorf("schema = %q", doc.Schema)
			}
			if doc.Run["system"] != system || doc.Run["bench"] != "052.alvinn" {
				t.Errorf("run doc = %v", doc.Run)
			}
			if c, _ := doc.Run["cycles"].(float64); c <= 0 {
				t.Errorf("cycles = %v", doc.Run["cycles"])
			}
			for _, key := range []string{"engine", "memsys"} {
				sub, ok := doc.Stats[key].(map[string]any)
				if !ok {
					t.Fatalf("stats missing %q subtree", key)
				}
				if key == "memsys" {
					if _, ok := sub["l1[0]"]; !ok {
						t.Errorf("memsys stats missing per-cache entries: %v", sub)
					}
				}
			}
			if system == "hmtx" {
				eng := doc.Stats["engine"].(map[string]any)
				if txc, _ := eng["tx"].(map[string]any); txc["count"].(float64) == 0 {
					t.Errorf("no committed transactions in stats: %v", eng)
				}
			}
		})
	}
}

// TestRunDeterministic checks the acceptance criterion of DESIGN.md §10:
// both the stats JSON and the Chrome trace are byte-identical across two
// runs of the same configuration, and the trace is valid JSON.
func TestRunDeterministic(t *testing.T) {
	do := func() (stdout, stats, trace []byte) {
		dir := t.TempDir()
		sj := filepath.Join(dir, "stats.json")
		tj := filepath.Join(dir, "trace.json")
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "052.alvinn", "-cores", "4",
			"-stats-json", sj, "-trace-out", tj, "-trace-cats", "txn,commit,bus"}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		stats, err := os.ReadFile(sj)
		if err != nil {
			t.Fatal(err)
		}
		trace, err = os.ReadFile(tj)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), stats, trace
	}
	o1, s1, t1 := do()
	o2, s2, t2 := do()
	if !bytes.Equal(s1, s2) {
		t.Error("stats JSON differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs across identical runs")
	}
	if !bytes.Equal(o1, o2) {
		t.Error("stdout differs across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}
	if !strings.Contains(string(o1), "per-transaction timeline") {
		t.Errorf("tracing run missing timeline summary:\n%s", o1)
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bench", "no-such-bench"}, &out, &errb); code != 1 {
		t.Errorf("unknown bench: exit %d", code)
	}
	if code := run([]string{"-bench", "052.alvinn", "-system", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown system: exit %d", code)
	}
	if code := run([]string{"-bench", "052.alvinn", "-trace", "-trace-cats", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown category: exit %d", code)
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("missing bench: exit %d", code)
	}
}

// TestRunMetricsOutputs verifies the -series/-conflicts/-hist flags: each
// writes a well-formed schema-tagged document, the DOT output is valid dot
// syntax, and all are byte-identical across identical runs.
func TestRunMetricsOutputs(t *testing.T) {
	do := func(system string) (series, conflicts, hist, dot []byte) {
		dir := t.TempDir()
		sp := filepath.Join(dir, "series.json")
		cp := filepath.Join(dir, "conflicts.json")
		hp := filepath.Join(dir, "hist.json")
		dp := filepath.Join(dir, "conflicts.dot")
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "052.alvinn", "-system", system, "-cores", "4",
			"-series", sp, "-series-window", "1024",
			"-conflicts", cp, "-conflicts-dot", dp, "-hist", hp}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		read := func(p string) []byte {
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		return read(sp), read(cp), read(hp), read(dp)
	}

	s1, c1, h1, d1 := do("hmtx")
	s2, c2, h2, d2 := do("hmtx")
	for _, eq := range []struct {
		name string
		a, b []byte
	}{{"series", s1, s2}, {"conflicts", c1, c2}, {"hist", h1, h2}, {"dot", d1, d2}} {
		if !bytes.Equal(eq.a, eq.b) {
			t.Errorf("%s differs across identical runs", eq.name)
		}
	}

	var sd struct {
		Schema string `json:"schema"`
		Series []struct {
			Label  string  `json:"label"`
			Cycles []int64 `json:"cycles"`
			Cols   []struct {
				Name string `json:"name"`
			} `json:"columns"`
		} `json:"series"`
	}
	if err := json.Unmarshal(s1, &sd); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if sd.Schema != "hmtx-series/v1" || len(sd.Series) != 1 {
		t.Fatalf("series doc = %+v", sd)
	}
	if sd.Series[0].Label != "052.alvinn/hmtx" || len(sd.Series[0].Cycles) == 0 {
		t.Errorf("series = %+v", sd.Series[0])
	}
	names := map[string]bool{}
	for _, c := range sd.Series[0].Cols {
		names[c.Name] = true
	}
	for _, want := range []string{"instructions", "txs_committed", "aborts", "validation_cycles", "commit_cycles"} {
		if !names[want] {
			t.Errorf("series missing column %q", want)
		}
	}

	var cd struct {
		Schema string `json:"schema"`
		Graphs []struct {
			Edges []any `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(c1, &cd); err != nil {
		t.Fatalf("conflicts JSON: %v", err)
	}
	if cd.Schema != "hmtx-conflicts/v1" || len(cd.Graphs) != 1 {
		t.Fatalf("conflict doc = %+v", cd)
	}
	if cd.Graphs[0].Edges == nil {
		t.Error("edges should be [] even when empty, not null")
	}

	var hd struct {
		Schema     string `json:"schema"`
		Histograms []struct {
			Hists []struct {
				Name  string `json:"name"`
				Total uint64 `json:"total"`
			} `json:"hists"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(h1, &hd); err != nil {
		t.Fatalf("hist JSON: %v", err)
	}
	if hd.Schema != "hmtx-hist/v1" || len(hd.Histograms) != 1 || len(hd.Histograms[0].Hists) != 3 {
		t.Fatalf("hist doc = %+v", hd)
	}
	if hd.Histograms[0].Hists[0].Name != "open_to_commit" || hd.Histograms[0].Hists[0].Total == 0 {
		t.Errorf("open_to_commit hist = %+v", hd.Histograms[0].Hists[0])
	}

	if !strings.HasPrefix(string(d1), "digraph") || !strings.HasSuffix(string(d1), "}\n") {
		t.Errorf("dot output malformed:\n%s", d1)
	}

	// SMTX runs must populate the validation histogram (§2.3): the paradigm
	// shift hmtxreport charts.
	_, _, hs, _ := do("smtx-min")
	if err := json.Unmarshal(hs, &hd); err != nil {
		t.Fatal(err)
	}
	if hd.Histograms[0].Hists[1].Name != "validation" || hd.Histograms[0].Hists[1].Total == 0 {
		t.Errorf("smtx-min validation hist = %+v", hd.Histograms[0].Hists[1])
	}
}

// TestCheckpointResumeCLI: a run halted at a mid-run checkpoint and resumed
// produces byte-identical stdout and output documents to the same segmented
// run left uninterrupted (the hmtx-ckpt/v1 contract, DESIGN.md §18).
func TestCheckpointResumeCLI(t *testing.T) {
	outputs := func(dir string) []string {
		return []string{
			"-prof-out", filepath.Join(dir, "prof.json"),
			"-series", filepath.Join(dir, "series.json"),
			"-conflicts", filepath.Join(dir, "conflicts.json"),
			"-hist", filepath.Join(dir, "hist.json"),
			// The stats registry rides along: its histograms are carried in
			// the checkpoint's obs_hists and restored after re-registration.
			"-stats-json", filepath.Join(dir, "stats.json"),
		}
	}
	base := []string{"-bench", "052.alvinn", "-cores", "4", "-ckpt-every", "10"}

	fullDir := t.TempDir()
	var fullOut, errb bytes.Buffer
	if code := run(append(append([]string{}, base...), outputs(fullDir)...), &fullOut, &errb); code != 0 {
		t.Fatalf("full run: exit %d, stderr: %s", code, errb.String())
	}

	haltDir := t.TempDir()
	ckptFile := filepath.Join(haltDir, "ckpt.json")
	var haltOut bytes.Buffer
	errb.Reset()
	args := append(append([]string{}, base...), "-ckpt-out", ckptFile, "-ckpt-halt")
	args = append(args, outputs(haltDir)...)
	if code := run(args, &haltOut, &errb); code != 0 {
		t.Fatalf("halted run: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(haltOut.String(), "checkpoint: halted at iteration 10") {
		t.Fatalf("halted run output:\n%s", haltOut.String())
	}
	if _, err := os.Stat(filepath.Join(haltDir, "prof.json")); !os.IsNotExist(err) {
		t.Error("halted run should not write output documents")
	}

	resDir := t.TempDir()
	var resOut bytes.Buffer
	errb.Reset()
	if code := run(append([]string{"-resume", ckptFile}, outputs(resDir)...), &resOut, &errb); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, errb.String())
	}

	// stdout embeds the -series path; normalise the directories away before
	// comparing.
	norm := func(s, dir string) string { return strings.ReplaceAll(s, dir, "DIR") }
	if got, want := norm(resOut.String(), resDir), norm(fullOut.String(), fullDir); got != want {
		t.Errorf("resumed stdout differs from full run:\n--- resumed\n%s\n--- full\n%s", got, want)
	}
	for _, name := range []string{"prof.json", "series.json", "conflicts.json", "hist.json", "stats.json"} {
		full, err := os.ReadFile(filepath.Join(fullDir, name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(filepath.Join(resDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, res) {
			t.Errorf("%s differs between full and resumed run", name)
		}
	}
}

// TestCheckpointBytesPinned pins the on-disk hmtx-ckpt/v1 bytes of halted
// runs, bare and with every checkpointed instrument attached. The round-trip
// tests cannot see a change to the encoding, because its writer and reader
// would change together; these digests can. A deliberate format change must
// bump the format's version and record new digests.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		outputs    []string // output-document flags; each takes a file name
		wantSize   int
		wantSHA256 string
	}{
		{"bare", nil, 107392907, "3429be8c1b678a824ffd2c28118dea586914a85e0ed488db8539152f798457af"},
		{"instrumented", []string{"-prof-out", "-series", "-conflicts", "-hist", "-stats-json"},
			107457703, "086606cc235d75b42367c901662bc8a74c9fe1e614bab30569ceffb3a9d1172c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckptFile := filepath.Join(dir, "ckpt.json")
			args := []string{"-bench", "052.alvinn", "-cores", "4", "-ckpt-every", "10",
				"-ckpt-halt", "-ckpt-out", ckptFile}
			for i, flag := range tc.outputs {
				args = append(args, flag, filepath.Join(dir, fmt.Sprintf("out%d.json", i)))
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("halted run: exit %d, stderr: %s", code, errb.String())
			}
			data, err := os.ReadFile(ckptFile)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != tc.wantSize {
				t.Errorf("checkpoint is %d bytes, want %d", len(data), tc.wantSize)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.wantSHA256 {
				t.Errorf("checkpoint SHA-256 %s, want %s", got, tc.wantSHA256)
			}
		})
	}
}

// TestInstrumentedOutputsPinned pins every instrument's output document
// against digests recorded before the instruments shared one hook.
// TestRunDeterministic compares two runs of the same code, so it cannot see
// a refactor change the bytes; these digests can. 197.parser under hmtx
// without SLAs records conflict edges; 052.alvinn under smtx-max covers the
// runtime's validation spans (Env.Emit).
func TestInstrumentedOutputsPinned(t *testing.T) {
	docs := []string{"-trace-out", "-prof-out", "-series", "-conflicts", "-hist", "-stats-json"}
	for _, tc := range []struct {
		name string
		args []string
		want []string // SHA-256 of each document, in docs order
	}{
		{"197.parser/hmtx", []string{"-bench", "197.parser", "-system", "hmtx", "-no-sla", "-cores", "8"}, []string{
			"f270cc25469dec59ccc2ec23d6c07947afaab497ae3d82c407cb9efd1f92a638",
			"66aef95f7955e3444ff2e60987f1d2e772cfb2199d9a76968f15f70157b28e9d",
			"82010d57cc5d59f5d60310a23f7c0e792d464b2c80f2195cd7ba83d9a436744b",
			"d459161bacee7543d5df32c8226801d65b971519f4788bd49f832b58ee1eaadd",
			"8715847af99def8fd0ded458a0ed07be098cb16085368d6fa14859585428d08e",
			"76ba2ff4a9ad86ccfcc075390dde005b42a7b5a16ef92eec23681c9bae0a934c",
		}},
		{"052.alvinn/smtx-max", []string{"-bench", "052.alvinn", "-system", "smtx-max", "-cores", "4"}, []string{
			"6948578e3a9de1df92298b98ad0cdcdafc191605a58820b7dac99848d34c4256",
			"7b94105653952b6286dea95eb1758da2ddf870c39d7d8a296e4b8ac139da7635",
			"966201b0690b688f563ee67b247df23c191e69ea3fa6157986a012c900aacdc5",
			"7b6787341f1d7774aa5a5824453a6a79d1cf6809d5ec39746bcb2e00c5574e68",
			"6fc6fea8d6bdc1483875caea2f50e8e562a13c1e657693b14d1f7a6a063b4433",
			"7342d2c55e8ee6f6294f5957e537e89394148e3a30c0a0e7bc96706449f3e02c",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{}, tc.args...)
			for i, flag := range docs {
				args = append(args, flag, filepath.Join(dir, fmt.Sprintf("doc%d.json", i)))
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			for i, flag := range docs {
				data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("doc%d.json", i)))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want[i] {
					t.Errorf("%s document SHA-256 %s, want %s", flag, got, tc.want[i])
				}
			}
		})
	}
}

// TestCheckpointFlagValidation covers the resume/instrument mismatch errors.
func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ckptFile := filepath.Join(dir, "ckpt.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "052.alvinn", "-cores", "4", "-ckpt-every", "10",
		"-ckpt-out", ckptFile, "-ckpt-halt",
		"-hist", filepath.Join(dir, "hist.json")}, &out, &errb)
	if code != 0 {
		t.Fatalf("halted run: exit %d, stderr: %s", code, errb.String())
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"instrument mismatch", []string{"-resume", ckptFile}, "latency histograms"},
		{"registry mismatch", []string{"-resume", ckptFile, "-hist", filepath.Join(dir, "h3.json"),
			"-stats-json", filepath.Join(dir, "s3.json")}, "statistics registry"},
		{"fixed flag", []string{"-resume", ckptFile, "-cores", "8", "-hist", filepath.Join(dir, "h2.json")}, "conflicts with -resume"},
		{"ckpt on seq", []string{"-bench", "052.alvinn", "-system", "seq", "-ckpt-every", "5"}, "requires -system hmtx"},
		{"halt without every", []string{"-bench", "052.alvinn", "-ckpt-halt"}, "need -ckpt-every"},
	} {
		out.Reset()
		errb.Reset()
		if code := run(tc.args, &out, &errb); code == 0 {
			t.Errorf("%s: want nonzero exit", tc.name)
		} else if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errb.String(), tc.want)
		}
	}
}

// TestParadigmFlag: -paradigm takes every parallel paradigm by the name
// Kind.String prints or by its lowercase, dash-free spelling, through the one
// lookup paradigm.ParseParallel; auto keeps the benchmark's own, and
// Sequential is not a parallel paradigm.
func TestParadigmFlag(t *testing.T) {
	for _, tc := range []struct {
		flag, want string // want: the paradigm in the benchmark line, or the error
	}{
		{"auto", "(DOALL,"},
		{"doall", "(DOALL,"}, {"DOALL", "(DOALL,"},
		{"doacross", "(DOACROSS,"}, {"DOACROSS", "(DOACROSS,"},
		{"dswp", "(DSWP,"}, {"Dswp", "(DSWP,"},
		{"psdswp", "(PS-DSWP,"}, {"PS-DSWP", "(PS-DSWP,"}, {"ps-dswp", "(PS-DSWP,"},
		{"Sequential", `unknown paradigm "Sequential"`},
		{"bogus", `unknown paradigm "bogus"`},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "052.alvinn", "-system", "seq", "-paradigm", tc.flag}, &out, &errb)
		if strings.HasPrefix(tc.want, "(") {
			if code != 0 || !strings.Contains(out.String(), "052.alvinn "+tc.want) {
				t.Errorf("-paradigm %s: exit %d, want the benchmark line to name %s:\n%s%s", tc.flag, code, tc.want, out.String(), errb.String())
			}
		} else if code != 1 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("-paradigm %s: exit %d, stderr %q; want exit 1 and %q", tc.flag, code, errb.String(), tc.want)
		}
	}
}
