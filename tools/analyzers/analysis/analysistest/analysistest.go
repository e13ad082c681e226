// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against expectations written in the fixtures themselves, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under testdata/src/<importpath>/, GOPATH-style: a fixture
// file's import path is its directory relative to testdata/src, so fixtures
// can import each other. Imports with no fixture directory resolve to real
// packages via compiler export data.
//
// An expected diagnostic is declared with a trailing comment on the line it
// is reported at:
//
//	for k := range m { // want `range over map`
//
// Each quoted or backquoted string is a regular expression that must match
// the message of a distinct diagnostic on that line. Lines without a want
// comment must produce no diagnostics.
package analysistest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hmtx/tools/analyzers/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory (go test runs with the package directory as working directory).
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// Run type-checks the fixture packages under testdata/src, applies a to
// each named package, and reports mismatches between its diagnostics and the
// package's want comments through t. Fixture packages that are not named
// are type-checked only as the named packages' imports.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	checker, err := loadFixtures(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgpaths {
		pkg, err := checker.Package(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		checkExpectations(t, pkg, analysis.Run(pkg, a))
	}
}

// loadFixtures registers every directory under srcroot that contains Go
// files as a source unit keyed by its slash-separated relative path, and
// gathers export data for any imports that are not fixtures.
func loadFixtures(srcroot string) (*analysis.Checker, error) {
	checker := analysis.NewChecker()
	units := make(map[string]bool) // every fixture path
	var imports []string           // every import of every fixture
	fset := token.NewFileSet()

	err := filepath.WalkDir(srcroot, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		if len(files) == 0 {
			return nil
		}
		sort.Strings(files)
		rel, err := filepath.Rel(srcroot, dir)
		if err != nil {
			return err
		}
		unitPath := filepath.ToSlash(rel)
		checker.AddUnit(unitPath, files)
		units[unitPath] = true
		for _, f := range files {
			syntax, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range syntax.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					imports = append(imports, path)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Anything imported by a fixture that is not itself a fixture must come
	// from export data; one `go list -export` resolves them all.
	need := make(map[string]bool)
	for _, path := range imports {
		if path != "unsafe" && !units[path] {
			need[path] = true
		}
	}
	var needList []string
	for path := range need {
		needList = append(needList, path)
	}
	sort.Strings(needList)
	if len(needList) > 0 {
		listed, err := analysis.GoList(needList...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.ForTest == "" && p.Export != "" {
				checker.Exports()[p.ImportPath] = p.Export
			}
		}
	}
	return checker, nil
}

// An expectation is one regexp from a want comment, anchored to a line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

var wantArg = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func checkExpectations(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range wantArg.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s: bad want literal %s: %v", pos, lit, err)
						continue
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: pattern})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
