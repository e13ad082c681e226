package main

import (
	"path/filepath"
	"strings"
	"testing"
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

// TestAnalyzerRoster pins the analyzers hmtxlint runs, kept sorted by name
// so the run order is stable.
func TestAnalyzerRoster(t *testing.T) {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "detrange fastpath noclock"; got != want {
		t.Errorf("analyzer roster = %s\nwant %s", got, want)
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
