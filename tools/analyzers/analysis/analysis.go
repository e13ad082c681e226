// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports position-anchored diagnostics.
//
// Only the subset needed by the hmtx linters is provided — no suggested
// fixes, no facts, no analyzer-to-analyzer dependencies: every rule judges
// one package from its own syntax and types. Packages are loaded with Load
// (see load.go), which shells out to `go list -export` and type-checks
// target packages from source against compiler export data, so the module
// needs no third-party imports.
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
	// Run applies the rule to a single package and reports diagnostics
	// through pass.Report.
	Run func(*Pass)
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

// Run applies one analyzer to one loaded package and returns its diagnostics
// sorted by position (ties broken by message), so the output is independent
// of the analyzer's internal traversal order.
func Run(pkg *Package, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	a.Run(pass)
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// NewInfo returns a types.Info with all maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
