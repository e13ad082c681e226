// Package callgraph builds a static call graph for one type-checked package
// from its go/types information. Only statically resolvable edges are
// recorded: direct calls of package-level functions and of methods on
// concrete receivers. Calls through interfaces, function values and channels
// have no edge — analyzers treat those callees as unknown and must handle
// them conservatively.
//
// The graph covers the package's declared functions (including methods);
// function literals are not graph nodes, but calls made inside a literal are
// attributed to the enclosing declared function, so a summary computed for a
// declared function covers the closures it builds.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"hmtx/tools/analyzers/analysis"
)

// A Node is one declared function with its syntax and outgoing static calls.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Callees are the statically resolved targets of calls lexically inside
	// Decl (function literals included), deduplicated, in a deterministic
	// order (same-package callees by declaration position, then imported
	// callees by full name).
	Callees []*types.Func
}

// A Graph maps every function declared in the package to its node.
type Graph struct {
	// Nodes in declaration order.
	Nodes []*Node
	byFn  map[*types.Func]*Node
}

// StaticCallee resolves the target of a call expression to a declared
// function or method, or nil for calls through interfaces, function values,
// type conversions and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// A method on an interface value has no static target.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified function
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// Build constructs the package's call graph.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{byFn: make(map[*types.Func]*Node)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			seen := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := StaticCallee(pass.TypesInfo, call); callee != nil && !seen[callee] {
					seen[callee] = true
					n.Callees = append(n.Callees, callee)
				}
				return true
			})
			sort.Slice(n.Callees, func(i, j int) bool {
				a, b := n.Callees[i], n.Callees[j]
				if (a.Pkg() == pass.Pkg) != (b.Pkg() == pass.Pkg) {
					return a.Pkg() == pass.Pkg
				}
				if a.Pkg() == pass.Pkg && b.Pkg() == pass.Pkg {
					return a.Pos() < b.Pos()
				}
				return a.FullName() < b.FullName()
			})
			g.Nodes = append(g.Nodes, n)
			g.byFn[fn] = n
		}
	}
	return g
}

// PostOrder returns the package's functions callees-first: if f statically
// calls g and both are declared in the package, g precedes f (up to cycles,
// which are emitted in the order recursion found them). Analyzers computing
// bottom-up summaries process functions in this order and re-iterate until
// the summaries stop changing, which handles recursion.
func (g *Graph) PostOrder() []*Node {
	var order []*Node
	state := make(map[*Node]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(n *Node)
	visit = func(n *Node) {
		if state[n] != 0 {
			return
		}
		state[n] = 1
		for _, callee := range n.Callees {
			if cn := g.byFn[callee]; cn != nil && state[cn] == 0 {
				visit(cn)
			}
		}
		state[n] = 2
		order = append(order, n)
	}
	for _, n := range g.Nodes {
		visit(n)
	}
	return order
}
