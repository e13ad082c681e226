// Package detrange flags the places where Go's map iteration order or
// select's random choice enters a simulation package.
//
// Go randomizes map iteration order, so any map range whose body can affect
// simulation state, simulated time, or report text breaks the determinism
// contract (same Config.Seed => byte-identical output; see DESIGN.md). The
// analyzer permits bodies that are provably order-insensitive — pure
// key-indexed copies, deletes keyed by the range key, and integer
// accumulation — and asks for everything else to iterate a sorted key slice.
//
// Since v2 it also permits the idiom that *builds* that sorted key slice: a
// loop whose body only appends the range key (or a conversion of it) to a
// local slice, immediately followed by a sort of that slice. The randomness
// dies in the sort — keys are distinct, so even an unstable sort yields one
// deterministic order. The allowance is keys-only: collected *values* may
// contain sort-equal elements whose final order would still be the
// iteration order.
//
// Since v3 it flags the other ways to observe those orders where they are
// called:
//
//   - maps.Keys, maps.Values and maps.All, and reflect.Value's MapKeys and
//     MapRange, unless slices.Sorted takes the result directly, or the keys
//     (maps.Keys, possibly through slices.Collect, or MapKeys) are assigned
//     to a local slice that the very next statement sorts, as in the v2
//     collect-then-sort rule;
//   - a select with two or more communication clauses: when several are
//     ready, the runtime picks one at random.
//
// Test files are exempt: they only talk to testing.T, which tolerates
// unordered reporting and cannot feed state back into a simulation run.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/simscope"
)

var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flags map iteration with order-sensitive bodies, unsorted map iterators and multi-way selects in simulation packages",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if !simscope.Covers(pass.PkgPath) {
		return
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		next := nextStmts(file)
		sorted := sortedCalls(pass, file, next)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n, next[n])
			case *ast.CallExpr:
				if name, _ := mapOrderCall(pass, n); name != "" && !sorted[n] {
					pass.Reportf(n.Pos(), "%s yields map iteration order; pass it straight to slices.Sorted or collect and sort the keys to keep runs deterministic", name)
				}
			case *ast.SelectStmt:
				comms := 0
				for _, c := range n.Body.List {
					if c.(*ast.CommClause).Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Select, "select with %d communication clauses picks among ready cases at random; receive in a fixed order to keep runs deterministic", comms)
				}
			}
			return true
		})
	}
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, after ast.Stmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitive(pass, rs) || collectThenSort(pass, rs, after) {
		return
	}
	pass.Reportf(rs.For, "range over map has an order-sensitive body; iterate a sorted key slice to keep runs deterministic")
}

// mapOrderCall names the call if it yields a map's entries in iteration
// order, and reports whether it yields only the keys, which are distinct.
func mapOrderCall(pass *analysis.Pass, call *ast.CallExpr) (name string, keys bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if s.Kind() == types.MethodVal && isNamed(s.Recv(), "reflect", "Value") {
			switch sel.Sel.Name {
			case "MapKeys":
				return "reflect.Value.MapKeys", true
			case "MapRange":
				return "reflect.Value.MapRange", false
			}
		}
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return "", false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return "maps." + fn.Name(), fn.Name() == "Keys"
	}
	return "", false
}

// sortedCalls returns the map-order calls of file whose order dies at once:
// the argument of slices.Sorted, and keys assigned (directly or through
// slices.Collect) to a variable that the next statement sorts.
func sortedCalls(pass *analysis.Pass, file *ast.File, next map[ast.Stmt]ast.Stmt) map[*ast.CallExpr]bool {
	sorted := map[*ast.CallExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isFunc(pass, n, "slices", "Sorted") && len(n.Args) == 1 {
				if arg, ok := ast.Unparen(n.Args[0]).(*ast.CallExpr); ok {
					sorted[arg] = true
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			dst, ok := n.Lhs[0].(*ast.Ident)
			call, ok2 := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !ok2 {
				return true
			}
			if isFunc(pass, call, "slices", "Collect") && len(call.Args) == 1 {
				if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
					call = inner
				}
			}
			if _, keys := mapOrderCall(pass, call); keys && sortsSlice(pass, next[n], identObj(pass, dst)) {
				sorted[call] = true
			}
		}
		return true
	})
	return sorted
}

// isFunc reports whether call calls the package-level function pkg.name.
func isFunc(pass *analysis.Pass, call *ast.CallExpr, pkg, name string) bool {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg && fn.Name() == name
}

// isNamed reports whether t, or the type t points to, is pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkg && n.Obj().Name() == name
}

// nextStmts maps each statement to the statement that follows it in its
// enclosing statement list, so a range loop can be judged together with
// what runs right after it.
func nextStmts(file *ast.File) map[ast.Stmt]ast.Stmt {
	next := map[ast.Stmt]ast.Stmt{}
	record := func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			next[list[i]] = list[i+1]
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			record(n.List)
		case *ast.CaseClause:
			record(n.Body)
		case *ast.CommClause:
			record(n.Body)
		}
		return true
	})
	return next
}

// collectThenSort reports whether rs is the sorted-key-slice builder the
// finding message recommends: the body only appends the range key (possibly
// through a type conversion) to a local slice, and the very next statement
// sorts that slice. The map's random order is then unobservable — keys are
// distinct, so the sorted result is unique.
func collectThenSort(pass *analysis.Pass, rs *ast.RangeStmt, after ast.Stmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	if key == nil || !isBlank(rs.Value) {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok {
		return false
	} else if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok || identObj(pass, base) == nil || identObj(pass, base) != identObj(pass, dst) {
		return false
	}
	appended := ast.Unparen(call.Args[1])
	if conv, ok := appended.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[conv.Fun]; ok && tv.IsType() {
			appended = ast.Unparen(conv.Args[0])
		}
	}
	if !isIdent(pass, appended, key) {
		return false
	}
	return sortsSlice(pass, after, identObj(pass, dst))
}

// sortsSlice reports whether stmt is a call to a stdlib sorting function
// whose collection argument is the variable obj.
func sortsSlice(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok || obj == nil {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
		default:
			return false
		}
	case "slices":
		if !strings.HasPrefix(fn.Name(), "Sort") {
			return false
		}
	default:
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && identObj(pass, arg) == obj
}

func isBlank(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// orderInsensitive reports whether every statement in the loop body commutes
// across iterations, making the map's random order unobservable.
func orderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	for _, stmt := range rs.Body.List {
		if !orderInsensitiveStmt(pass, key, stmt) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *analysis.Pass, key *ast.Ident, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ASSIGN:
			// m2[k] = v: writes to distinct keys commute. Every target must
			// be indexed by the range key and no operand may call anything.
			for _, lhs := range s.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok || !isIdent(pass, ix.Index, key) {
					return false
				}
			}
			return !anyCalls(s.Rhs)
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN:
			// Integer accumulation commutes; float accumulation does not
			// (rounding depends on order), strings concatenate in order.
			return isInteger(pass, s.Lhs[0]) && !anyCalls(s.Rhs)
		}
		return false
	case *ast.IncDecStmt:
		return isInteger(pass, s.X)
	case *ast.ExprStmt:
		// delete(m2, k) removes distinct keys, which commutes.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || len(call.Args) != 2 {
			return false
		}
		if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "delete" {
			return false
		}
		return isIdent(pass, call.Args[1], key)
	}
	return false
}

func isIdent(pass *analysis.Pass, e ast.Expr, key *ast.Ident) bool {
	id, ok := e.(*ast.Ident)
	if !ok || key == nil {
		return false
	}
	return pass.TypesInfo.Uses[id] == pass.TypesInfo.Defs[key] && pass.TypesInfo.Defs[key] != nil
}

func isInteger(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func anyCalls(exprs []ast.Expr) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
