// Package atomicfield enforces the shared-word memory discipline of
// DESIGN.md §17: a struct field that is accessed through sync/atomic
// anywhere in the program is a shared word, and every access to it reachable
// from a go-spawned goroutine must also be atomic. Mixing a plain
// `s.bound = x` with `atomic.AddInt64(&s.bound, d)` on concurrent goroutines
// is a data race the race detector only catches when the schedule cooperates;
// this analyzer catches it structurally.
//
// Two rules, both scoped to goroutine-reachable code (the valueflow
// GoReachable closure: go statements, their static callees, and any function
// or method referenced as a value inside reachable bodies — so workers
// dispatched through function pointers are covered):
//
//   - a field marked atomic — its address is passed to a sync/atomic function
//     somewhere, in this package or (via analyzer facts) a dependency — may
//     only be used as &x.f inside a sync/atomic call. Any other read or write
//     is reported.
//
//   - a value of one of the sync/atomic wrapper types (atomic.Int64,
//     atomic.Uint64, atomic.Bool, atomic.Pointer[T], atomic.Value, ...) may
//     only be used as a method-call receiver or through its address — the
//     work-claim counter `next atomic.Int64` of the experiments worker pool
//     (internal/experiments) is the case in the tree. Copying one
//     (assignment, range value, argument) smuggles a stale snapshot out of
//     the atomic domain and is reported.
//
// Sites on the coordinating goroutine (not go-reachable) are deliberately not
// flagged: pre-spawn initialization and post-join reads are the intended
// plain-access windows. Test files are exempt.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/valueflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "reports plain access to atomically-accessed struct fields from goroutine-reachable code",
	Run:  run,
}

// atomicFact marks a struct field whose address reaches sync/atomic.
type atomicFact struct{}

func (*atomicFact) AFact() {}

func run(pass *analysis.Pass) (any, error) {
	var files []*ast.File
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, file)
	}

	// Pass 1: find the atomic fields — every &x.f argument of a sync/atomic
	// call — and bless those exact selector nodes.
	atomicFields := map[*types.Var]bool{}
	blessed := map[ast.Node]bool{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				blessed[sel] = true
				if f := fieldOf(pass, sel); f != nil {
					atomicFields[f] = true
				}
			}
			return true
		})
	}
	for f := range atomicFields {
		pass.ExportObjectFact(f, &atomicFact{})
	}
	isAtomicField := func(v *types.Var) bool {
		if atomicFields[v] {
			return true
		}
		var f atomicFact
		return pass.ImportObjectFact(v, &f)
	}

	// Pass 2: every plain use inside the goroutine-reachability closure.
	cg := callgraph.Build(pass)
	reach := valueflow.GoReachable(pass, cg, false)

	type body struct {
		b   *ast.BlockStmt
		via string
	}
	var bodies []body
	for fn, via := range reach.Funcs {
		if n := cg.Node(fn); n != nil && n.Decl != nil && n.Decl.Body != nil {
			if !strings.HasSuffix(pass.Fset.Position(n.Decl.Pos()).Filename, "_test.go") {
				bodies = append(bodies, body{n.Decl.Body, via})
			}
		}
	}
	for _, lit := range reach.Lits {
		bodies = append(bodies, body{lit.Body, lit.Via})
	}

	// A go-launched literal's body sits inside some declaration; when that
	// declaration is itself reachable the nodes would be visited twice.
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, b := range bodies {
		parents := parentMap(b.b)
		ast.Inspect(b.b, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if !blessed[n] {
					if f := fieldOf(pass, n); f != nil && isAtomicField(f) {
						report(n.Sel.Pos(), "plain access to atomic field %s on a goroutine (%s); every goroutine-reachable access must go through sync/atomic", f.Name(), b.via)
					}
				}
			case *ast.RangeStmt:
				// Range value variables are declarations (no Types entry);
				// the copy they perform is checked here.
				if id, ok := n.Value.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						if name := atomicTypeName(v.Type()); name != "" {
							report(id.Pos(), "copies sync/atomic value %s on a goroutine (%s); range over indices instead", name, b.via)
						}
					}
				}
			}
			checkAtomicValueUse(pass, report, parents, n, b.via)
			return true
		})
	}
	return nil, nil
}

// checkAtomicValueUse flags expressions of a sync/atomic wrapper type used as
// a plain value: anything but a method-call receiver, a field/element path on
// the way to one, or an address-of.
func checkAtomicValueUse(pass *analysis.Pass, report func(token.Pos, string, ...any), parents map[ast.Node]ast.Node, n ast.Node, via string) {
	e, ok := n.(ast.Expr)
	if !ok {
		return
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.CallExpr:
	default:
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() {
		return
	}
	name := atomicTypeName(tv.Type)
	if name == "" {
		return
	}
	switch p := parents[e].(type) {
	case *ast.SelectorExpr:
		if p.X == e {
			return // receiver of .Load()/.Store()/... or a deeper path
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return // address taken; passing *atomic.T around is fine
		}
	case *ast.StarExpr, *ast.ParenExpr:
		return // deref/parens: judged at the outer expression
	case *ast.IndexExpr:
		if p.X == e {
			return // indexing into a collection of atomics
		}
	}
	report(e.Pos(), "copies sync/atomic value %s on a goroutine (%s); operate on it through methods via a pointer", name, via)
}

func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := callgraph.StaticCallee(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// atomicTypeName reports t's name when it is one of the sync/atomic wrapper
// struct types, "" otherwise.
func atomicTypeName(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	return "atomic." + obj.Name()
}
