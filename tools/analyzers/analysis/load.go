package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// ListedPackage mirrors the fields of `go list -json` output that the loader reads.
type ListedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	DepOnly      bool
	Standard     bool
	ForTest      string
}

// GoList runs `go list -export -deps -test -json` on patterns and returns the
// decoded entries. Every dependency in the output carries the path of its
// compiler export data, which is what lets the loader type-check without any
// source for the transitive closure.
func GoList(patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(ListedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves patterns as `go list` would and type-checks each matched
// package by itself: its source, in-package _test.go files included,
// against the compiler export data of everything it imports. A package with
// an external test package (package foo_test) yields a second *Package,
// whose PkgPath carries a "_test" suffix, checked against the export data
// of the package's test build: the package recompiled with its tests and
// any dependency recompiled against them ("dep [pkg.test]").
//
// No package's types depend on which other packages were matched, so a
// package loaded alone is the package loaded with the whole module.
// Packages come back in `go list -deps` order, dependencies first, each
// external test package right after its package.
func Load(patterns ...string) ([]*Package, error) {
	listed, err := GoList(patterns...)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)                // import path -> export data file
	testExports := make(map[string]map[string]string) // tested package -> its test build's exports
	var targets []*ListedPackage
	for _, p := range listed {
		switch {
		case strings.HasSuffix(p.ImportPath, ".test"): // a test binary's main package
		case p.ForTest != "":
			if testExports[p.ForTest] == nil {
				testExports[p.ForTest] = make(map[string]string)
			}
			testExports[p.ForTest][plainPath(p.ImportPath)] = p.Export
		default:
			exports[p.ImportPath] = p.Export
			if !p.Standard && !p.DepOnly {
				targets = append(targets, p)
			}
		}
	}

	// The plain packages share one export-data importer, so each export file
	// is read once; no source package is registered to shadow it. Each
	// external test package gets an importer of its own, for its package's
	// test build.
	plain := NewChecker()
	plain.exports = exports
	var pkgs []*Package
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		files := append(joinDir(p.Dir, p.GoFiles), joinDir(p.Dir, p.TestGoFiles)...)
		pkg, err := plain.checkAlone(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if len(p.XTestGoFiles) > 0 {
			x := NewChecker()
			x.exports = maps.Clone(exports)
			maps.Copy(x.exports, testExports[p.ImportPath])
			pkg, err := x.checkAlone(p.ImportPath+"_test", joinDir(p.Dir, p.XTestGoFiles))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// plainPath strips a test variant's " [pkg.test]" suffix from an import path.
func plainPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

func joinDir(dir string, names []string) []string {
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths
}

// A unit is one package's worth of source files awaiting type-checking.
type unit struct {
	path     string
	files    []string
	syntax   []*ast.File
	pkg      *types.Package
	info     *types.Info
	checking bool
}

// A Checker type-checks source packages against compiler export data. Units
// registered with AddUnit also see each other: a unit shadows the export
// data of its import path, as fixture packages that import each other need.
type Checker struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	units   map[string]*unit  // import path -> source-loaded package
	gc      types.Importer
}

// NewChecker returns an empty Checker. Populate exports via Exports and
// source packages via AddUnit before calling Package.
func NewChecker() *Checker {
	c := &Checker{
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		units:   make(map[string]*unit),
	}
	c.gc = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := c.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return c
}

// Exports exposes the import-path-to-export-data map for callers that gather
// export data themselves (see analysistest).
func (c *Checker) Exports() map[string]string { return c.exports }

// AddUnit registers a source package under an import path.
func (c *Checker) AddUnit(path string, files []string) {
	c.units[path] = &unit{path: path, files: files}
}

// Package type-checks (once) and returns the unit registered under path.
func (c *Checker) Package(path string) (*Package, error) {
	u, ok := c.units[path]
	if !ok {
		return nil, fmt.Errorf("no source unit registered for %q", path)
	}
	return c.checked(u)
}

// checkAlone type-checks a source package that is not registered as a
// unit, so it imports only export data and no other package imports it.
func (c *Checker) checkAlone(path string, files []string) (*Package, error) {
	return c.checked(&unit{path: path, files: files})
}

func (c *Checker) checked(u *unit) (*Package, error) {
	if err := c.check(u); err != nil {
		return nil, err
	}
	return &Package{
		PkgPath: u.path,
		Fset:    c.fset,
		Files:   u.syntax,
		Types:   u.pkg,
		Info:    u.info,
	}, nil
}

// Import implements types.Importer.
func (c *Checker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if u, ok := c.units[path]; ok {
		if err := c.check(u); err != nil {
			return nil, err
		}
		return u.pkg, nil
	}
	return c.gc.Import(path)
}

func (c *Checker) check(u *unit) error {
	if u.pkg != nil {
		return nil
	}
	if u.checking {
		return fmt.Errorf("import cycle through %q", u.path)
	}
	u.checking = true
	defer func() { u.checking = false }()

	if u.syntax == nil {
		for _, f := range u.files {
			syntax, err := parser.ParseFile(c.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			u.syntax = append(u.syntax, syntax)
		}
	}
	u.info = NewInfo()
	conf := types.Config{
		Importer: c,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(u.path, c.fset, u.syntax, u.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", u.path, err)
	}
	u.pkg = pkg
	return nil
}
