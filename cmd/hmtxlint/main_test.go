package main

import (
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
	want := "detrange fastpath noclock statemut"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("analyzer roster = %s\nwant %s", got, want)
	}
	if vers["detrange"] != "3" || vers["fastpath"] != "3" || vers["noclock"] != "2" || vers["statemut"] != "1" {
		t.Errorf("analyzer versions = %v, want detrange 3, fastpath 3, noclock 2 and statemut 1", vers)
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
