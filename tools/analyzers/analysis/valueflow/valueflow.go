// Package valueflow is the SSA-lite value-flow layer of the analysis
// framework: def-use chains over one function's syntax and an
// address-taken/escape lattice for its variables.
//
// It deliberately stops short of full SSA. The hmtx analyzers need to answer
// two questions a plain AST walk cannot:
//
//   - does the address of this variable reach the heap? (hotalloc: an
//     escaping parameter is heap-moved at every call — the PR 8 install()
//     `&ln` panic-argument bug class);
//   - does this function leak the pointer values passed to it? (so a caller
//     can pass `&local` to a callee without the local escaping).
//
// The escape analysis is flow-insensitive and monotone: every tracked
// *origin* (the address of a local, an addressable composite literal, a
// function literal, a method value, a pointer-shaped parameter value) is
// propagated through assignments between locals until the origin set of
// every variable is stable, and any origin observed at an escape sink —
// stored outside the frame, returned, sent, captured by go/defer, or passed
// to a callee that leaks the corresponding parameter — is marked escaped
// with a human-readable reason. Flow-insensitivity over-approximates, which
// is the safe direction for every client: a variable reported non-escaping
// truly cannot escape.
package valueflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/cfg"
)

// An Escape records why and where an origin left the function frame.
type Escape struct {
	Pos    token.Pos // the sink site
	Reason string    // e.g. "passed to fmt.Sprintf", "returned", "stored to heap"
}

// Result is the value-flow summary of one function body.
type Result struct {
	// EntryVars lists the variables materialised at function entry —
	// receiver, parameters, named results, in declaration order. If one of
	// these escapes (see EscapedVars) the function heap-allocates it on
	// every call, not just on the path containing the sink.
	EntryVars []*types.Var

	// EscapedVars maps each variable whose *address* reached an escape sink
	// to the first sink that did it (first in syntactic walk order, so the
	// result is deterministic).
	EscapedVars map[*types.Var]Escape

	// EscapedExprs maps allocation-candidate expressions — &T{...} composite
	// literals, function literals, method values — that reached an escape
	// sink to the sink. A candidate absent from this map provably does not
	// escape and is stack-allocated by the compiler.
	EscapedExprs map[ast.Node]Escape

	// ParamLeaks[i] reports whether the pointer value arriving in
	// EntryVars[i] may still be reachable after the function returns
	// (stored, returned, or passed on to a leaking callee). Callers use this
	// to decide whether an argument `&x` forces x to escape.
	ParamLeaks []bool

	panicBlocks []span // source intervals executed only on panic-bound paths
}

type span struct{ lo, hi token.Pos }

// PanicGated reports whether pos lies in a statement that executes only on a
// path ending in a call to the panic builtin (per the function's CFG: a block
// terminated by panic). Allocations there never run on the non-panicking fast
// path; escaping *entry* variables are deliberately not excused by this —
// their heap move happens at function entry regardless.
func (r *Result) PanicGated(pos token.Pos) bool {
	for _, s := range r.panicBlocks {
		if s.lo <= pos && pos <= s.hi {
			return true
		}
	}
	return false
}

// LeakOf resolves the ParamLeaks summary of a callee, or nil when the callee
// is unknown (every pointer argument is then assumed to leak). Clients wire
// this to their bottom-up summary store (in-package) and fact store
// (imported packages).
type LeakOf func(*types.Func) []bool

// Analyze computes the value-flow summary of fn's body. leakOf may be nil,
// which treats every callee as leaking all of its parameters.
func Analyze(pass *analysis.Pass, fn *ast.FuncDecl, leakOf LeakOf) *Result {
	a := &analyzer{
		pass:    pass,
		leakOf:  leakOf,
		res:     &Result{EscapedVars: map[*types.Var]Escape{}, EscapedExprs: map[ast.Node]Escape{}},
		holds:   map[*types.Var]map[origin]bool{},
		escaped: map[origin]Escape{},
	}
	a.collectEntryVars(fn)
	// Seed pointer-shaped entry values: their escape is a parameter leak.
	for i, v := range a.res.EntryVars {
		if pointerShaped(v.Type()) {
			a.addHold(v, origin{kind: oParamVal, v: v, idx: i})
		}
	}
	// Monotone fixpoint: origin sets only grow, so re-walking the body until
	// nothing changes terminates and visits every sink with the final sets.
	for {
		a.changed = false
		a.walk(fn.Body)
		if !a.changed {
			break
		}
	}
	a.finish(fn)
	return a.res
}

// origin identifies one tracked value source.
type origin struct {
	kind int // oAddrOf, oParamVal, oExpr
	v    *types.Var
	idx  int // oParamVal: entry-var index
	expr ast.Node
}

const (
	oAddrOf = iota // &localVar (or local array sliced)
	oParamVal
	oExpr // &T{...}, FuncLit, method value
)

type analyzer struct {
	pass    *analysis.Pass
	leakOf  LeakOf
	res     *Result
	holds   map[*types.Var]map[origin]bool
	escaped map[origin]Escape
	changed bool
}

func (a *analyzer) collectEntryVars(fn *ast.FuncDecl) {
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := a.pass.TypesInfo.Defs[name].(*types.Var); ok {
					a.res.EntryVars = append(a.res.EntryVars, v)
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	add(fn.Type.Results) // named results are entry-allocated too
}

func (a *analyzer) addHold(v *types.Var, o origin) {
	m := a.holds[v]
	if m == nil {
		m = map[origin]bool{}
		a.holds[v] = m
	}
	if !m[o] {
		m[o] = true
		a.changed = true
	}
}

func (a *analyzer) escape(os []origin, pos token.Pos, reason string) {
	for _, o := range os {
		if _, done := a.escaped[o]; !done {
			a.escaped[o] = Escape{Pos: pos, Reason: reason}
			a.changed = true
		}
	}
}

// localVar resolves e to a function-local (or entry) variable, or nil.
func (a *analyzer) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := a.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = a.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent() == a.pass.Pkg.Scope() {
		return nil // field, package-level, or not a var at all
	}
	return v
}

// originsOf returns the tracked origins expression e may evaluate to.
func (a *analyzer) originsOf(e ast.Expr) []origin {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v := a.localVar(e); v != nil {
			var out []origin
			for o := range a.holds[v] {
				out = append(out, o)
			}
			return out
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			inner := ast.Unparen(e.X)
			if lit, ok := inner.(*ast.CompositeLit); ok {
				return []origin{{kind: oExpr, expr: lit}}
			}
			if v := a.addrBase(inner); v != nil {
				return []origin{{kind: oAddrOf, v: v}}
			}
		}
	case *ast.CompositeLit:
		// A bare composite used as a value copies; only its address matters.
		return nil
	case *ast.FuncLit:
		return []origin{{kind: oExpr, expr: e}}
	case *ast.SelectorExpr:
		if sel, ok := a.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
			// The method value closes over its receiver: it carries the
			// receiver's origins along with its own closure allocation.
			return append([]origin{{kind: oExpr, expr: e}}, a.originsOf(e.X)...)
		}
	case *ast.SliceExpr:
		// Slicing a local array aliases its storage: x[:] carries &x.
		if v := a.localVar(e.X); v != nil && isArray(a.pass, e.X) {
			return []origin{{kind: oAddrOf, v: v}}
		}
		return a.originsOf(e.X)
	case *ast.CallExpr:
		// A conversion passes its operand's origins through; real calls
		// yield untracked values (arguments were handled at the call).
		if tv, ok := a.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return a.originsOf(e.Args[0])
		}
	case *ast.StarExpr, *ast.IndexExpr, *ast.BinaryExpr, *ast.TypeAssertExpr, *ast.BasicLit:
		return nil
	}
	return nil
}

// addrBase finds the local variable whose storage &e aliases: the variable
// itself, or the base of selector/index chains rooted at a non-pointer local
// (&x.f aliases x; &p.f where p is a pointer aliases heap).
func (a *analyzer) addrBase(e ast.Expr) *types.Var {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return a.localVar(x)
		case *ast.SelectorExpr:
			if tv, ok := a.pass.TypesInfo.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if !isArray(a.pass, x.X) {
				return nil // slice/map element storage is already heap
			}
			e = x.X
		default:
			return nil
		}
	}
}

func isArray(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	_, isArr := tv.Type.Underlying().(*types.Array)
	return isArr
}

// pointerShaped reports whether values of t carry a reference to storage the
// caller may also hold (so leaking the value leaks that storage).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// walk performs one monotone pass over the body, growing origin sets and
// recording sinks. FuncLit bodies are walked in place: an assignment or sink
// inside a literal is treated as happening in the enclosing function, which
// over-approximates (the literal may never run) in the safe direction.
func (a *analyzer) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				a.escape(a.originsOf(r), r.Pos(), "returned")
			}
		case *ast.SendStmt:
			a.escape(a.originsOf(n.Value), n.Pos(), "sent on a channel")
		case *ast.GoStmt:
			a.escape(a.originsOf(n.Call.Fun), n.Pos(), "started as a goroutine")
			for _, arg := range n.Call.Args {
				a.escape(a.originsOf(arg), arg.Pos(), "passed to a goroutine")
			}
		case *ast.DeferStmt:
			a.escape(a.originsOf(n.Call.Fun), n.Pos(), "deferred")
			for _, arg := range n.Call.Args {
				a.escape(a.originsOf(arg), arg.Pos(), "passed to a deferred call")
			}
		case *ast.CallExpr:
			a.call(n)
		case *ast.CompositeLit:
			// Origins stored into a composite literal may outlive the frame
			// with the literal; treated as escaping (conservative).
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				a.escape(a.originsOf(el), el.Pos(), "stored in a composite literal")
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if v, ok := a.pass.TypesInfo.Defs[name].(*types.Var); ok {
						for _, o := range a.originsOf(n.Values[i]) {
							a.addHold(v, o)
						}
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a var that holds origins aliases them into the
			// value variable.
			if n.Value != nil {
				if v := a.localVar(n.Value); v != nil {
					for _, o := range a.originsOf(n.X) {
						a.addHold(v, o)
					}
				}
			}
		}
		return true
	})
}

func (a *analyzer) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0] // multi-value call/assert: results carry no origins
			if _, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				continue
			}
			if _, ok := ast.Unparen(rhs).(*ast.TypeAssertExpr); ok {
				continue
			}
		default:
			continue
		}
		os := a.originsOf(rhs)
		if len(os) == 0 {
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			if v := a.localVar(id); v != nil {
				for _, o := range os {
					a.addHold(v, o)
				}
				continue
			}
			a.escape(os, lhs.Pos(), "stored in a package-level variable")
			continue
		}
		// Storing through a selector or index of a *local* struct/array var
		// keeps the origin inside the frame: propagate to the base variable.
		if v := a.addrBase(lhs); v != nil {
			for _, o := range os {
				a.addHold(v, o)
			}
			continue
		}
		a.escape(os, lhs.Pos(), "stored outside the function frame")
	}
}

// call applies escape sinks for one call expression's arguments (and, for
// method calls on addressable locals, the implicit receiver address).
func (a *analyzer) call(call *ast.CallExpr) {
	if tv, ok := a.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, handled by originsOf
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			a.builtinCall(id.Name, call)
			return
		}
	}
	callee := callgraph.StaticCallee(a.pass.TypesInfo, call)
	var leaks []bool
	if callee != nil && a.leakOf != nil {
		leaks = a.leakOf(callee)
	}
	name := calleeName(a.pass, call)

	// Implicit receiver: x.m() on an addressable local with a pointer-
	// receiver method takes &x.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := a.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvOrigins := a.originsOf(sel.X)
			if fn, ok := s.Obj().(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if _, ptrRecv := sig.Recv().Type().Underlying().(*types.Pointer); ptrRecv {
						if v := a.addrBase(sel.X); v != nil {
							recvOrigins = append(recvOrigins, origin{kind: oAddrOf, v: v})
						}
					}
				}
			}
			if len(recvOrigins) > 0 && (leaks == nil || leaks[0]) {
				a.escape(recvOrigins, sel.Pos(), "receiver passed to "+name)
			}
		}
	}
	// leaks indexes entry vars: slot 0 is the receiver for methods.
	argBase := 0
	if callee != nil && callee.Type().(*types.Signature).Recv() != nil {
		argBase = 1
	}
	sig, _ := a.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	for i, arg := range call.Args {
		os := a.originsOf(arg)
		if len(os) == 0 {
			continue
		}
		slot := argBase + i
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			slot = argBase + sig.Params().Len() - 1
		}
		if leaks == nil || slot >= len(leaks) || leaks[slot] {
			a.escape(os, arg.Pos(), "passed to "+name)
		}
	}
}

func (a *analyzer) builtinCall(name string, call *ast.CallExpr) {
	switch name {
	case "append":
		// Elements land in heap-backed storage; the slice operand keeps its
		// own origins (growth reallocates away from them, which only helps).
		for _, arg := range call.Args[1:] {
			a.escape(a.originsOf(arg), arg.Pos(), "appended to a slice")
		}
	case "copy":
		if len(call.Args) == 2 {
			a.escape(a.originsOf(call.Args[1]), call.Args[1].Pos(), "copied into a slice")
		}
	case "panic", "print", "println":
		for _, arg := range call.Args {
			a.escape(a.originsOf(arg), arg.Pos(), "passed to "+name)
		}
	case "len", "cap", "delete", "clear", "min", "max", "recover", "new", "make", "close", "complex", "real", "imag":
		// No pointer operand escapes through these.
	}
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := callgraph.StaticCallee(pass.TypesInfo, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return "dynamic call " + fun.Sel.Name
	case *ast.Ident:
		return "dynamic call " + fun.Name
	}
	return "a dynamic call"
}

// finish folds the raw escape records into the public result and computes
// the panic-gated spans from the CFG.
func (a *analyzer) finish(fn *ast.FuncDecl) {
	entryIdx := map[*types.Var]int{}
	for i, v := range a.res.EntryVars {
		entryIdx[v] = i
	}
	a.res.ParamLeaks = make([]bool, len(a.res.EntryVars))
	for o, esc := range a.escaped {
		switch o.kind {
		case oAddrOf:
			if _, ok := a.res.EscapedVars[o.v]; !ok {
				a.res.EscapedVars[o.v] = esc
			} else if esc.Pos < a.res.EscapedVars[o.v].Pos {
				a.res.EscapedVars[o.v] = esc
			}
			if i, ok := entryIdx[o.v]; ok {
				// The caller's storage is reachable through &param too.
				a.res.ParamLeaks[i] = true
			}
		case oParamVal:
			a.res.ParamLeaks[o.idx] = true
		case oExpr:
			if cur, ok := a.res.EscapedExprs[o.expr]; !ok || esc.Pos < cur.Pos {
				a.res.EscapedExprs[o.expr] = esc
			}
		}
	}
	// Panic spans come from the CFG of the body and of every nested function
	// literal: cfg.New treats a literal as an opaque expression, so without
	// the extra graphs a panic-bound block inside a closure would go unseen.
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	for _, body := range bodies {
		g := cfg.New(body)
		for _, blk := range g.Blocks {
			if len(blk.Nodes) == 0 {
				continue
			}
			if es, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ExprStmt); ok && isPanicCall(es.X) {
				a.res.panicBlocks = append(a.res.panicBlocks, span{blk.Nodes[0].Pos(), es.End()})
			}
		}
	}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
