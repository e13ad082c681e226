package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmtx/internal/lintdoc"
)

func TestSortFindingsStable(t *testing.T) {
	fs := []Finding{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "a", Message: "m"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "z", Message: "b"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "z", Message: "a"},
	}
	sortFindings(fs)
	want := []Finding{
		{File: "a.go", Line: 2, Col: 1, Analyzer: "z", Message: "a"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "z", Message: "b"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "a", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "z", Message: "m"},
		{File: "b.go", Line: 1, Col: 1, Analyzer: "z", Message: "m"},
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, fs[i], want[i])
		}
	}
}

func TestDiffBaselineIgnoresLineDrift(t *testing.T) {
	baseline := []Finding{
		{File: "x.go", Line: 10, Col: 2, Analyzer: "detflow", Message: "old finding"},
		{File: "x.go", Line: 20, Col: 2, Analyzer: "txpath", Message: "dup"},
	}
	findings := []Finding{
		{File: "x.go", Line: 14, Col: 2, Analyzer: "detflow", Message: "old finding"}, // moved: tolerated
		{File: "x.go", Line: 20, Col: 2, Analyzer: "txpath", Message: "dup"},
		{File: "x.go", Line: 25, Col: 2, Analyzer: "txpath", Message: "dup"}, // second instance: new
		{File: "y.go", Line: 1, Col: 1, Analyzer: "noclock", Message: "brand new"},
	}
	fresh := diffBaseline(findings, baseline)
	if len(fresh) != 2 {
		t.Fatalf("got %d fresh findings, want 2: %+v", len(fresh), fresh)
	}
	if fresh[0].Line != 25 || fresh[0].Analyzer != "txpath" {
		t.Errorf("fresh[0] = %+v, want the second txpath dup", fresh[0])
	}
	if fresh[1].File != "y.go" {
		t.Errorf("fresh[1] = %+v, want the y.go finding", fresh[1])
	}
}

func TestDiffBaselineEmptyBaseline(t *testing.T) {
	findings := []Finding{{File: "x.go", Line: 1, Col: 1, Analyzer: "a", Message: "m"}}
	if fresh := diffBaseline(findings, nil); len(fresh) != 1 {
		t.Fatalf("got %d, want all findings fresh with an empty baseline", len(fresh))
	}
}

// TestReadBaselineFormats verifies that the hmtx-lint/v1 document is the one
// accepted baseline format: a bare findings array or a foreign schema is an
// error.
func TestReadBaselineFormats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	doc := write("doc.json", `{"schema":"hmtx-lint/v1","analyzers":[{"name":"hotalloc","version":"1"}],`+
		`"findings":[{"file":"x.go","line":1,"col":2,"analyzer":"hotalloc","message":"m"}]}`)
	fs, err := readBaseline(doc)
	if err != nil {
		t.Fatalf("readBaseline(%s): %v", doc, err)
	}
	if len(fs) != 1 || fs[0].Analyzer != "hotalloc" || fs[0].Line != 1 {
		t.Errorf("readBaseline(%s) = %+v", doc, fs)
	}
	for name, content := range map[string]string{
		"array.json":   `[{"file":"x.go","line":1,"col":2,"analyzer":"hotalloc","message":"m"}]`,
		"foreign.json": `{"schema":"hmtx-series/v1"}`,
	} {
		if _, err := readBaseline(write(name, content)); err == nil {
			t.Errorf("%s accepted as baseline", name)
		}
	}
}

// TestLintDoc verifies the -json document header: schema tag and one
// versioned entry per registered analyzer.
func TestLintDoc(t *testing.T) {
	doc := lintDoc(nil)
	if doc.Schema != lintdoc.Schema {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Analyzers) != len(analyzers) {
		t.Fatalf("%d analyzer entries, want %d", len(doc.Analyzers), len(analyzers))
	}
	vers := map[string]string{}
	var names []string
	for i, a := range doc.Analyzers {
		if a.Version == "" {
			t.Errorf("analyzer %s has empty version", a.Name)
		}
		if i > 0 && doc.Analyzers[i-1].Name >= a.Name {
			t.Errorf("analyzer roster not sorted at %s", a.Name)
		}
		vers[a.Name] = a.Version
		names = append(names, a.Name)
	}
	want := "detflow detrange fastpath hotalloc noclock statefp statemut txpath"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("analyzer roster = %s\nwant %s", got, want)
	}
	if vers["fastpath"] != "2" || vers["txpath"] != "2" {
		t.Errorf("analyzer versions = %v, want fastpath 2 and txpath 2", vers)
	}
}

func TestRelPath(t *testing.T) {
	base := filepath.Join(string(filepath.Separator), "repo")
	inside := filepath.Join(base, "internal", "x.go")
	if got := relPath(base, inside); got != "internal/x.go" {
		t.Errorf("relPath(inside) = %q, want internal/x.go", got)
	}
	outside := filepath.Join(string(filepath.Separator), "elsewhere", "y.go")
	if got := relPath(base, outside); got != outside {
		t.Errorf("relPath(outside) = %q, want the absolute path kept", got)
	}
}
