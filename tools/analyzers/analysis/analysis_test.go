package analysis_test

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmtx/tools/analyzers/analysis"
)

// loadDiag source-loads the diag fixture.
func loadDiag(t *testing.T) *analysis.Package {
	t.Helper()
	c := analysis.NewChecker()
	c.AddUnit("diag", []string{filepath.Join("testdata", "src", "diag", "diag.go")})
	p, err := c.Package("diag")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiagnosticOrdering reports diagnostics in scrambled order and checks that
// Run returns them sorted by position, then message.
func TestDiagnosticOrdering(t *testing.T) {
	pa := loadDiag(t)
	a := &analysis.Analyzer{
		Name: "scramble",
		Doc:  "reports function declarations in reverse source order",
		Run: func(pass *analysis.Pass) {
			var decls []*ast.FuncDecl
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						decls = append(decls, fd)
					}
				}
			}
			for i := len(decls) - 1; i >= 0; i-- {
				pass.Reportf(decls[i].Pos(), "decl %s", decls[i].Name.Name)
				pass.Reportf(decls[i].Pos(), "also %s", decls[i].Name.Name)
			}
		},
	}
	diags := analysis.Run(pa, a)
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 4", len(diags))
	}
	var got []string
	lastPos := token.NoPos
	for _, d := range diags {
		if d.Pos < lastPos {
			t.Errorf("diagnostics not sorted by position: %v after %v", d.Pos, lastPos)
		}
		lastPos = d.Pos
		got = append(got, d.Message)
	}
	want := []string{"also Marked", "decl Marked", "also Plain", "decl Plain"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("messages = %v, want %v (position then message order)", got, want)
	}
}

// TestLoadDependencyOrder loads real repository packages and checks every
// package appears after its loaded imports.
func TestLoadDependencyOrder(t *testing.T) {
	pkgs, err := analysis.Load("hmtx/internal/vid", "hmtx/internal/memsys", "hmtx/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int)
	for i, p := range pkgs {
		index[p.PkgPath] = i
	}
	for _, path := range []string{"hmtx/internal/vid", "hmtx/internal/memsys", "hmtx/internal/engine"} {
		if _, ok := index[path]; !ok {
			t.Fatalf("package %s missing from Load result", path)
		}
	}
	if index["hmtx/internal/vid"] > index["hmtx/internal/engine"] {
		t.Error("vid must precede engine, which imports it")
	}
	if index["hmtx/internal/memsys"] > index["hmtx/internal/engine"] {
		t.Error("memsys must precede engine, which imports it")
	}
}

// TestLoadBetweenPackages loads two packages with a third on the import path
// between them (internal/hmtx imports internal/paradigm, which imports
// internal/engine). Each is checked alone against export data, so exactly
// the two matched packages come back, both type-checked.
func TestLoadBetweenPackages(t *testing.T) {
	pkgs, err := analysis.Load("hmtx/internal/engine", "hmtx/internal/hmtx")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		if p.Types == nil || !p.Types.Complete() || len(p.Files) == 0 {
			t.Errorf("%s: not type-checked from source", p.PkgPath)
		}
		got = append(got, p.PkgPath)
	}
	if want := "hmtx/internal/engine hmtx/internal/hmtx"; strings.Join(got, " ") != want {
		t.Errorf("loaded %v, want %s", got, want)
	}
}

// TestLoadTestVariant loads a package a whose own tests recompile it and
// whose external tests import b, which imports a back. go list then reports
// b only as the test variant "b [a.test]"; the external test package must
// type-check against that variant's export data and the test-augmented a.
func TestLoadTestVariant(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module tv\n\ngo 1.22\n",
		"a/a.go":        "package a\n\nfunc F() int { return 1 }\n",
		"a/a_test.go":   "package a\n\nfunc g() int { return F() }\n",
		"a/ext_test.go": "package a_test\n\nimport \"tv/b\"\n\nvar _ = b.G()\n",
		"b/b.go":        "package b\n\nimport \"tv/a\"\n\nfunc G() int { return a.F() }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	pkgs, err := analysis.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.PkgPath)
	}
	if want := "tv/a tv/a_test"; strings.Join(got, " ") != want {
		t.Errorf("loaded %v, want %s", got, want)
	}
}
