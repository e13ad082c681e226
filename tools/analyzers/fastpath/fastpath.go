// Package fastpath keeps instrumentation off the simulator's fast path.
//
// The instrument contract (DESIGN.md §10) is that a run with no instrument
// attached pays one nil-check per decision point: internal/engine and
// internal/memsys hand each one to the instrument hook (internal/instr) as an
// obs.Event, and the hook folds it into every attached instrument. So every
// instr.Hook Emit call in those two packages must sit in the body of an if
// statement whose condition calls the Hook's Enabled, and no event is built
// when nothing is attached. The instruments' own recording methods are
// unexported behind their Fold, so the compiler keeps the engine and the
// memory system from reaching them; the hook is the one gate. Test files are
// exempt: tests drive the hook deliberately and are not on the fast path.
package fastpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hmtx/tools/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fastpath",
	Doc:  "requires every instrument-hook Emit in memsys/engine to be inside an Enabled() guard",
	Run:  run,
}

func run(pass *analysis.Pass) {
	pkg := strings.TrimSuffix(pass.PkgPath, "_test")
	if !strings.HasSuffix(pkg, "internal/memsys") && !strings.HasSuffix(pkg, "internal/engine") {
		return
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		// First pass: the bodies of if statements whose condition consults
		// the hook's Enabled, however combined (negation, &&, ||). A call
		// inside one, at any nesting depth, is guarded.
		var guards [][2]token.Pos
		ast.Inspect(file, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && callsHook(pass, ifs.Cond, "Enabled") {
				guards = append(guards, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
		// Second pass: every Emit must fall inside a guard body.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !hookMethod(pass, call, "Emit") {
				return true
			}
			for _, g := range guards {
				if g[0] <= call.Pos() && call.Pos() < g[1] {
					return true
				}
			}
			pass.Reportf(call.Pos(), "instr.Hook.Emit outside an Enabled() guard; wrap it in `if h.Enabled() { ... }` to keep the fast path one branch when no instrument is attached")
			return true
		})
	}
}

// callsHook reports whether expression e calls the Hook method name.
func callsHook(pass *analysis.Pass, e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && hookMethod(pass, call, name) {
			found = true
		}
		return !found
	})
	return found
}

// hookMethod reports whether call invokes method name on an instr.Hook (a
// value or a pointer).
func hookMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Hook" && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/instr")
}
