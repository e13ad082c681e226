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
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// DepOnly marks a package Load checked from source only because it
	// lies on an import path between two matched packages, or only the
	// matched package's tests import it. It was not asked for: skip it.
	DepOnly bool
}

// ListedPackage mirrors the fields of `go list -json` output that the loader reads.
type ListedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
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

// Load resolves patterns as `go list` would and type-checks every matched
// package from source, including its in-package _test.go files. A package
// with an external test package (package foo_test) yields a second *Package
// whose PkgPath carries a "_test" suffix.
//
// Packages come back in dependency order — every package after all the
// loaded packages it imports, ties broken by import path — so the order is
// deterministic and a package is type-checked before its importers.
//
// A dependency that imports a matched package, directly or not, is checked
// from source as well (without its test files) and comes back with DepOnly
// set. Loaded from export data it would carry its own copy of the matched
// package it imports, whose types the importing package's source-checked
// copy does not match.
func Load(patterns ...string) ([]*Package, error) {
	listed, err := GoList(patterns...)
	if err != nil {
		return nil, err
	}

	c := NewChecker()
	var targets, deps, variants []*ListedPackage
	for _, p := range listed {
		// Test variants ("pkg [pkg.test]", "pkg.test") duplicate the plain
		// entries; only the plain entry describes the package's file split.
		// A variant of another package, "dep [pkg.test]", is a dependency
		// that imports pkg and is recompiled against pkg's tests; when only
		// pkg's tests import it, go list reports it in no other form.
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest != "" {
			if path := plainPath(p.ImportPath); path != p.ForTest && path != p.ForTest+"_test" {
				variants = append(variants, p)
			}
			continue
		}
		if p.Export != "" {
			c.exports[p.ImportPath] = p.Export
		}
		switch {
		case p.Standard:
		case len(p.CgoFiles) > 0 && !p.DepOnly:
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		case p.DepOnly:
			deps = append(deps, p)
		default:
			targets = append(targets, p)
		}
	}
	listedPlain := make(map[string]bool, len(targets)+len(deps))
	for _, list := range [][]*ListedPackage{targets, deps} {
		for _, p := range list {
			listedPlain[p.ImportPath] = true
		}
	}
	for _, p := range variants {
		path := plainPath(p.ImportPath)
		if listedPlain[path] {
			continue
		}
		listedPlain[path] = true
		dep := *p
		dep.ImportPath, dep.DepOnly = path, true
		dep.Imports = make([]string, len(p.Imports))
		for i, imp := range p.Imports {
			dep.Imports[i] = plainPath(imp)
		}
		deps = append(deps, &dep)
	}
	between := betweenDeps(targets, deps)

	// Register every target as a source unit first so that imports between
	// targets (and the external test package's import of its own package)
	// resolve to the source-checked package, test files included. Each unit
	// records which other units it imports, for the dependency sort.
	unitImports := make(map[string][]string)
	isUnit := make(map[string]bool)
	for _, p := range targets {
		isUnit[p.ImportPath] = true
		if len(p.XTestGoFiles) > 0 {
			isUnit[p.ImportPath+"_test"] = true
		}
	}
	depOnly := make(map[string]bool, len(between))
	for _, p := range between {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		isUnit[p.ImportPath] = true
		depOnly[p.ImportPath] = true
	}
	for _, p := range between {
		c.AddUnit(p.ImportPath, joinDir(p.Dir, p.GoFiles))
		unitImports[p.ImportPath] = unitEdges(isUnit, p.Imports)
	}
	for _, p := range targets {
		files := joinDir(p.Dir, p.GoFiles)
		files = append(files, joinDir(p.Dir, p.TestGoFiles)...)
		c.AddUnit(p.ImportPath, files)
		unitImports[p.ImportPath] = unitEdges(isUnit, p.Imports, p.TestImports)
		if len(p.XTestGoFiles) > 0 {
			xpath := p.ImportPath + "_test"
			c.AddUnit(xpath, joinDir(p.Dir, p.XTestGoFiles))
			unitImports[xpath] = unitEdges(isUnit, p.XTestImports, []string{p.ImportPath})
		}
	}

	var pkgs []*Package
	for _, path := range DependencyOrder(unitImports) {
		pkg, err := c.Package(path)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = depOnly[path]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// betweenDeps returns the dependencies that import a target, directly or
// through other dependencies, in listing order. Every dependency go list
// reports is imported by some target, so these are exactly the packages on
// an import path between two targets.
func betweenDeps(targets, deps []*ListedPackage) []*ListedPackage {
	reaches := make(map[string]bool) // import path -> imports a target
	for _, p := range targets {
		reaches[p.ImportPath] = true
	}
	imports := make(map[string][]string, len(deps))
	for _, p := range deps {
		imports[p.ImportPath] = p.Imports
	}
	var visit func(path string) bool
	visit = func(path string) bool {
		if r, ok := reaches[path]; ok {
			return r
		}
		reaches[path] = false // standard library, or a cycle in bad input
		for _, imp := range imports[path] {
			if visit(imp) {
				reaches[path] = true
				break
			}
		}
		return reaches[path]
	}
	var out []*ListedPackage
	for _, p := range deps {
		if visit(p.ImportPath) {
			out = append(out, p)
		}
	}
	return out
}

// unitEdges filters the concatenation of the import lists down to loaded
// units, deduplicated and sorted.
func unitEdges(isUnit map[string]bool, lists ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, list := range lists {
		for _, imp := range list {
			if isUnit[imp] && !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	sort.Strings(out)
	return out
}

// DependencyOrder topologically sorts the units (dependencies first), with
// lexicographic tie-breaking so the order is deterministic. Import cycles
// cannot occur between valid Go packages; if the edges nonetheless form one
// (e.g. bad input), the remaining units are appended in name order so every
// unit is still returned exactly once.
func DependencyOrder(unitImports map[string][]string) []string {
	indegree := make(map[string]int, len(unitImports))
	dependents := make(map[string][]string)
	for path := range unitImports {
		indegree[path] = 0
	}
	for path, imps := range unitImports {
		for _, imp := range imps {
			indegree[path]++
			dependents[imp] = append(dependents[imp], path)
		}
	}
	var ready []string
	for path, n := range indegree {
		if n == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		order = append(order, path)
		changed := false
		for _, dep := range dependents[path] {
			if indegree[dep]--; indegree[dep] == 0 {
				ready = append(ready, dep)
				changed = true
			}
		}
		if changed {
			sort.Strings(ready)
		}
	}
	if len(order) < len(unitImports) {
		var rest []string
		inOrder := make(map[string]bool, len(order))
		for _, path := range order {
			inOrder[path] = true
		}
		for path := range unitImports {
			if !inOrder[path] {
				rest = append(rest, path)
			}
		}
		sort.Strings(rest)
		order = append(order, rest...)
	}
	return order
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

// A Checker type-checks source units against each other and against compiler
// export data for everything else. Source units shadow export data, so units
// see each other's test-augmented form.
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
