// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports position-anchored diagnostics.
//
// Only the subset needed by the hmtx linters is provided — no suggested
// fixes, no analyzer-to-analyzer dependencies. Packages are loaded with Load
// (see load.go), which shells out to `go list -export` and type-checks
// target packages from source against compiler export data, so the module
// needs no third-party imports. Load returns packages in dependency order;
// a Runner carries analyzer facts (facts.go) from a package to its
// importers, which is what lets detflow reason across function
// and package boundaries. Sub-packages cfg and callgraph supply the
// per-function control-flow graphs, the forward-dataflow fixpoint engine,
// and the static call graph that analyzer is built on.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one lint rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "detrange".
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Version identifies the rule revision in versioned outputs (the
	// hmtx-lint/v1 JSON schema). Analyzers that never changed report "1";
	// bump it when a rule's findings change meaning so report diffs can tell
	// rule drift from code drift.
	Version string
	// Run applies the rule to a single package and reports diagnostics
	// through pass.Report. The returned value is ignored by the driver
	// but kept for signature compatibility with go/analysis.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path; xtest packages carry a "_test" suffix
	TypesInfo *types.Info
	Report    func(Diagnostic)

	facts *factStore
}

// A Diagnostic is one reported problem.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Runner applies analyzers to packages while carrying each analyzer's
// facts from one package to the next. Run packages in dependency order (the
// order Load returns them) so that an importer sees the facts its
// dependencies exported.
type Runner struct {
	facts *factStore
}

// NewRunner returns a Runner with an empty fact store.
func NewRunner() *Runner {
	return &Runner{facts: newFactStore()}
}

// Run applies one analyzer to one loaded package and returns its diagnostics
// sorted by position (ties broken by message), so the output is independent
// of the analyzer's internal traversal order.
func (r *Runner) Run(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
		facts:     r.facts,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// Run applies one analyzer to one package with a fresh fact store. Analyzers
// that rely on cross-package facts need a shared Runner instead.
func Run(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	return NewRunner().Run(pkg, a)
}

// NewInfo returns a types.Info with all maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}
