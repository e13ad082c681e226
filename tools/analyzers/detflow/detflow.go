// Package detflow is an interprocedural taint analysis for the determinism
// contract (DESIGN.md §9, §14): it marks values derived from nondeterminism
// sources and reports any explicit flow — across function and package
// boundaries — into simulation-visible state.
//
// Sources:
//   - map iteration order: `for range` over a map, and the stdlib map-order
//     launderers maps.Keys / maps.Values / maps.All and
//     reflect.Value.MapKeys / MapRange;
//   - select arm choice: values bound by a select communication clause;
//   - wall-clock time: time.Now / Since / Until;
//   - ambient randomness: package-level math/rand and math/rand/v2
//     functions and crypto/rand;
//   - host and process identity: runtime.NumCPU, runtime.NumGoroutine,
//     os.Getpid, os.Environ, os.Hostname;
//   - pointer-formatted addresses: fmt verbs with %p in a constant format
//     string, and unsafe.Pointer-to-uintptr conversions.
//
// Sinks:
//   - a store into a field (or composite literal) of a struct defined in a
//     simulation-visible package (simscope.SimPackages);
//   - a call into a simulation-visible package, or into the
//     deterministic-output encoders (encoding/json), passing a tainted
//     argument;
//   - a call to any function whose summary says the parameter reaches one
//     of the above inside the callee.
//
// The analysis is a forward dataflow over each function's CFG
// (analysis/cfg) tracking tainted objects. Function summaries — which
// results are inherently tainted, which parameters propagate to which
// results, and which parameters reach a sink — are computed bottom-up over
// the package call graph (analysis/callgraph) and exported as object facts,
// so a nondeterminism source laundered through helpers in another package
// is still caught at the point it enters simulation state. Only explicit
// flows are tracked: a branch on a tainted condition does not taint the
// values assigned under it (detrange covers order-sensitive loop bodies
// syntactically).
//
// A finding can be waived by annotating the reported line (or the line
// above it, for annotations written on their own line):
//
//	doc.Wall = time.Since(start).Seconds() //hmtx:detsafe wall-clock is the datum a perf snapshot records
//
// The reason is mandatory, and a detsafe annotation that no longer
// suppresses any finding is itself reported as stale, so waivers cannot
// outlive the code they excused. Staleness is judged against the packages
// of the run: lint the whole repository (./...), as CI does, because a
// partial run may lack the cross-package summaries that produce the waived
// finding and misreport its annotation as stale. Test files are exempt.
package detflow

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/cfg"
	"hmtx/tools/analyzers/simscope"
)

var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc:  "reports interprocedural flows from nondeterminism sources into simulation-visible state",
	Run:  run,
}

// summary is the exported per-function fact.
type summary struct {
	// Results[i] describes taint of the i'th result.
	Results []resTaint
	// Sinks lists parameters that reach a sink inside the function (or a
	// callee of it), with a description of that sink.
	Sinks []paramSink
}

func (*summary) AFact() {}

type resTaint struct {
	Sources []string // inherent source kinds flowing to this result
	Params  []int    // parameter indices whose taint propagates to this result
}

type paramSink struct {
	Param int
	Sink  string
}

// Ordering-kind sources describe the *order* values are observed in, not
// the values themselves. They are erased by operations that re-establish
// order-independence: sorting the collection, folding through a commutative
// integer operation, or storing into a map (whose content is independent of
// insertion order). Value-kind sources (time, rand, addresses) survive all
// of those.
var orderKinds = map[string]bool{
	"map iteration order":           true,
	"map iteration order (reflect)": true,
	"select arm ordering":           true,
}

func stripOrder(t taint) taint {
	var out taint
	for _, s := range t {
		if !orderKinds[s] {
			out = append(out, s)
		}
	}
	return out
}

// paramMark encodes parameter i as a pseudo-source during summary
// computation; the NUL prefix keeps it out of any real source description.
func paramMark(i int) string { return "\x00" + strconv.Itoa(i) }

func unmark(s string) (int, bool) {
	if strings.HasPrefix(s, "\x00") {
		n, err := strconv.Atoi(s[1:])
		return n, err == nil
	}
	return 0, false
}

type state struct {
	pass      *analysis.Pass
	cg        *callgraph.Graph
	summaries map[*types.Func]*summary
	// selectComm marks statements that are a select clause's communication
	// operation; values they bind are ordering-dependent.
	selectComm map[ast.Stmt]bool
	// report is nil while computing summaries (no diagnostics) and set
	// during the reporting pass.
	report func(pos token.Pos, format string, args ...any)
	// sinkHit collects parameter-to-sink flows of the function under
	// summary analysis.
	sinkHit map[paramSink]bool
}

func run(pass *analysis.Pass) (any, error) {
	s := &state{
		pass:       pass,
		cg:         callgraph.Build(pass),
		summaries:  make(map[*types.Func]*summary),
		selectComm: make(map[ast.Stmt]bool),
	}
	var files []*ast.File
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, file)
		ast.Inspect(file, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
				s.selectComm[cc.Comm] = true
			}
			return true
		})
	}

	// Bottom-up summaries over the call graph, iterated to a fixpoint so
	// recursion (and literal-mediated cycles) converge.
	order := s.cg.PostOrder()
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, n := range order {
			if strings.HasSuffix(pass.Fset.Position(n.Decl.Pos()).Filename, "_test.go") {
				continue
			}
			if s.computeSummary(n.Fn, n.Decl) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, n := range s.cg.Nodes {
		if sum := s.summaries[n.Fn]; sum != nil {
			pass.ExportObjectFact(n.Fn, sum)
		}
	}

	// Reporting pass: re-run the dataflow per function with diagnostics on
	// and parameters unseeded (parameter flows are reported at call sites,
	// where the actual nondeterministic argument is visible).
	ann := collectDetsafe(pass, files)
	var diags []analysis.Diagnostic
	s.report = func(pos token.Pos, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					s.flow(fn.Body, nil, fn.Type)
				}
			case *ast.FuncLit:
				s.flow(fn.Body, nil, fn.Type)
			}
			return true
		})
	}

	// Apply //hmtx:detsafe waivers, then report the stale ones.
	for _, d := range diags {
		p := pass.Fset.Position(d.Pos)
		// A waiver applies to findings on its own line or, for annotations
		// written on their own line above the flagged statement, the next.
		a := ann[lineKey{p.Filename, p.Line}]
		if a == nil {
			a = ann[lineKey{p.Filename, p.Line - 1}]
		}
		if a != nil {
			a.used = true
			continue
		}
		pass.Report(d)
	}
	for _, a := range ann {
		switch {
		case a.reason == "":
			pass.Reportf(a.pos, "//hmtx:detsafe annotation needs a reason")
		case !a.used:
			pass.Reportf(a.pos, "stale //hmtx:detsafe annotation: no nondeterminism flow is reported on this line")
		}
	}
	return nil, nil
}

type lineKey struct {
	file string
	line int
}

type annotation struct {
	pos    token.Pos
	reason string
	used   bool
}

func collectDetsafe(pass *analysis.Pass, files []*ast.File) map[lineKey]*annotation {
	ann := make(map[lineKey]*annotation)
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				// Both comment forms are accepted; the block form lets a
				// fixture put a want comment on the same line.
				body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/")
				text, ok := strings.CutPrefix(body, "hmtx:detsafe")
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				ann[lineKey{p.Filename, p.Line}] = &annotation{
					pos:    c.Pos(),
					reason: strings.TrimSpace(text),
				}
			}
		}
	}
	return ann
}

// taint is a sorted set of source descriptions (or parameter marks).
type taint []string

func (t taint) has() bool { return len(t) > 0 }

func union(a, b taint) taint {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	m := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		m[s] = true
	}
	out := make(taint, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (t taint) describe() string {
	var real []string
	for _, s := range t {
		if _, isMark := unmark(s); !isMark {
			real = append(real, s)
		}
	}
	return strings.Join(real, ", ")
}

// tmap is the dataflow state: taint per object.
type tmap map[types.Object]taint

func (m tmap) clone() tmap {
	c := make(tmap, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// computeSummary runs the dataflow for fn with parameters seeded with marks
// and records the resulting summary, reporting whether it changed.
func (s *state) computeSummary(fn *types.Func, decl *ast.FuncDecl) bool {
	sig := fn.Type().(*types.Signature)
	init := make(tmap)
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		init[params.At(i)] = taint{paramMark(i)}
	}
	if recv := sig.Recv(); recv != nil {
		// The receiver is not a summarized parameter; leave it unseeded.
		_ = recv
	}
	s.sinkHit = make(map[paramSink]bool)
	results := s.flow(decl.Body, init, decl.Type)
	sum := &summary{Results: results}
	for ps := range s.sinkHit {
		sum.Sinks = append(sum.Sinks, ps)
	}
	sort.Slice(sum.Sinks, func(i, j int) bool {
		if sum.Sinks[i].Param != sum.Sinks[j].Param {
			return sum.Sinks[i].Param < sum.Sinks[j].Param
		}
		return sum.Sinks[i].Sink < sum.Sinks[j].Sink
	})
	s.sinkHit = nil
	old := s.summaries[fn]
	s.summaries[fn] = sum
	return old == nil || !equalSummaries(old, sum)
}

func equalSummaries(a, b *summary) bool {
	return fmt.Sprint(*a) == fmt.Sprint(*b)
}

// flow runs the forward taint dataflow over one function body. init may be
// nil (no seeded taint). It returns the joined taint of each result across
// all return statements.
func (s *state) flow(body *ast.BlockStmt, init tmap, ftype *ast.FuncType) []resTaint {
	g := cfg.New(body)
	nresults := 0
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			nresults += n
		}
	}
	results := make([]taint, nresults)
	if init == nil {
		init = make(tmap)
	}

	transfer := func(b *cfg.Block, in tmap) tmap {
		cur := in.clone()
		for _, node := range b.Nodes {
			s.node(node, cur, false, nil)
		}
		return cur
	}
	join := func(into, from tmap, first bool) (tmap, bool) {
		if first {
			return from.clone(), true
		}
		changed := false
		for obj, t := range from {
			merged := union(into[obj], t)
			if len(merged) != len(into[obj]) {
				if !changed {
					into = into.clone()
					changed = true
				}
				into[obj] = merged
			}
		}
		return into, changed
	}
	in := cfg.Forward(g, init, transfer, join)

	// Final walk: same transfer, with sinks reported (or recorded into the
	// summary) and return taints accumulated.
	for _, b := range g.Blocks {
		cur := in[b.Index]
		if cur == nil {
			continue // unreachable block
		}
		cur = cur.clone()
		for _, node := range b.Nodes {
			s.node(node, cur, true, results)
		}
	}

	out := make([]resTaint, nresults)
	for i, t := range results {
		for _, src := range t {
			if p, isMark := unmark(src); isMark {
				out[i].Params = append(out[i].Params, p)
			} else {
				out[i].Sources = append(out[i].Sources, src)
			}
		}
	}
	return out
}

// node applies one CFG node to the taint state. With check set, sink
// violations are reported (or recorded as parameter sinks) and return
// statements accumulate into results.
func (s *state) node(node ast.Node, cur tmap, check bool, results []taint) {
	switch n := node.(type) {
	case *ast.AssignStmt:
		s.assign(n, cur, check)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t taint
					if len(vs.Values) == len(vs.Names) {
						t = s.expr(vs.Values[i], cur, check)
					} else if len(vs.Values) == 1 {
						t = tupleJoin(s.call(vs.Values[0], cur, check))
					}
					setObj(s.pass, cur, name, t)
				}
			}
		}
	case *ast.RangeStmt:
		t := s.expr(n.X, cur, check)
		if tv, ok := s.pass.TypesInfo.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				t = union(t, taint{"map iteration order"})
			}
		}
		if id, ok := n.Key.(*ast.Ident); ok {
			setObj(s.pass, cur, id, t)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			setObj(s.pass, cur, id, t)
		}
	case *ast.ReturnStmt:
		if check && results != nil {
			if len(n.Results) == 1 && len(results) > 1 {
				for i, t := range s.call(n.Results[0], cur, check) {
					if i < len(results) {
						results[i] = union(results[i], t)
					}
				}
			} else {
				for i, r := range n.Results {
					if i < len(results) {
						results[i] = union(results[i], s.expr(r, cur, check))
					}
				}
			}
		} else {
			for _, r := range n.Results {
				s.expr(r, cur, check)
			}
		}
	case *ast.ExprStmt:
		s.expr(n.X, cur, check)
	case *ast.IncDecStmt:
		s.expr(n.X, cur, check)
	case *ast.SendStmt:
		s.expr(n.Chan, cur, check)
		s.expr(n.Value, cur, check)
	case *ast.GoStmt:
		s.expr(n.Call, cur, check)
	case *ast.DeferStmt:
		s.expr(n.Call, cur, check)
	case ast.Expr:
		s.expr(n, cur, check)
	case ast.Stmt:
		// Init statements of if/switch appear as ordinary nodes above;
		// anything else has no taint effect.
		if a, ok := node.(*ast.AssignStmt); ok {
			s.assign(a, cur, check)
		}
	}
}

// assign propagates taint through one assignment and checks sink stores.
func (s *state) assign(n *ast.AssignStmt, cur tmap, check bool) {
	var rhs []taint
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		rhs = s.call(n.Rhs[0], cur, check)
		for len(rhs) < len(n.Lhs) {
			rhs = append(rhs, nil)
		}
	} else {
		for _, r := range n.Rhs {
			rhs = append(rhs, s.expr(r, cur, check))
		}
	}
	// A select communication `v := <-ch` binds an ordering-dependent value.
	if s.selectComm[n] {
		for i := range rhs {
			rhs[i] = union(rhs[i], taint{"select arm ordering"})
		}
	}
	for i, lhs := range n.Lhs {
		if i >= len(rhs) {
			break
		}
		t := rhs[i]
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound assignment joins with the old value. A commutative
			// integer fold (sum += v, bits |= v, ...) is order-insensitive,
			// so ordering-kind taint does not survive it — this is the
			// dataflow analogue of detrange's integer-accumulation
			// exemption.
			if commutativeFold(s.pass, n.Tok, lhs) {
				t = stripOrder(t)
			}
			t = union(t, s.expr(lhs, cur, check))
		}
		s.store(lhs, t, cur, check)
	}
}

// store writes taint t into the lvalue lhs: identifiers get per-object
// taint; field/index/pointer stores taint the base object and, when the
// target type belongs to a simulation-visible package, are sink-checked.
func (s *state) store(lhs ast.Expr, t taint, cur tmap, check bool) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		setObj(s.pass, cur, lhs, t)
	case *ast.SelectorExpr:
		if check && t.has() {
			if sel, ok := s.pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				if owner := namedOwner(sel.Recv()); owner != nil && simscope.IsSim(owner.Obj().Pkg().Path()) {
					s.sink(lhs.Pos(), t, fmt.Sprintf("simulation-visible field %s.%s", owner.Obj().Name(), lhs.Sel.Name))
				}
			}
		}
		s.taintBase(lhs.X, t, cur)
	case *ast.IndexExpr:
		// A map's content is independent of the order keys were inserted
		// in, so ordering-kind taint does not survive a map store; a slice
		// store at an order-dependent position keeps it.
		if tv, ok := s.pass.TypesInfo.Types[lhs.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				t = stripOrder(t)
			}
			if check && t.has() {
				if owner := namedOwner(tv.Type); owner != nil && simscope.IsSim(owner.Obj().Pkg().Path()) {
					s.sink(lhs.Pos(), t, fmt.Sprintf("simulation-visible container %s", owner.Obj().Name()))
				}
			}
		}
		s.taintBase(lhs.X, t, cur)
	case *ast.StarExpr:
		s.taintBase(lhs.X, t, cur)
	}
}

// commutativeFold reports whether tok is a commutative compound assignment
// into an integer-typed lvalue (float addition is not associative, so only
// integers qualify).
func commutativeFold(pass *analysis.Pass, tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	tv, ok := pass.TypesInfo.Types[lhs]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// killOrder removes ordering-kind taint from the root object of e (the
// collection just sorted).
func (s *state) killOrder(e ast.Expr, cur tmap) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := identObj(s.pass, x); obj != nil {
				if t := stripOrder(cur[obj]); len(t) != len(cur[obj]) {
					if t.has() {
						cur[obj] = t
					} else {
						delete(cur, obj)
					}
				}
			}
			return
		default:
			return
		}
	}
}

// taintBase joins t into the root identifier of a field/index/deref chain,
// so `x.f = tainted` makes later uses of x tainted.
func (s *state) taintBase(e ast.Expr, t taint, cur tmap) {
	if !t.has() {
		return
	}
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if obj := identObj(s.pass, x); obj != nil {
				cur[obj] = union(cur[obj], t)
			}
			return
		default:
			return
		}
	}
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func setObj(pass *analysis.Pass, cur tmap, id *ast.Ident, t taint) {
	if id.Name == "_" {
		return
	}
	obj := identObj(pass, id)
	if obj == nil {
		return
	}
	if t.has() {
		cur[obj] = t
	} else {
		delete(cur, obj)
	}
}

// namedOwner unwraps pointers to return the named type of t, if any.
func namedOwner(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if ok && n.Obj().Pkg() != nil {
		return n
	}
	return nil
}

// sink reports (or, during summary computation, records) taint reaching a
// sink. Parameter marks become parameter-sink summary entries; real sources
// become diagnostics.
func (s *state) sink(pos token.Pos, t taint, what string) {
	for _, src := range t {
		if p, isMark := unmark(src); isMark {
			if s.sinkHit != nil {
				s.sinkHit[paramSink{p, what}] = true
			}
		}
	}
	if s.report == nil {
		return
	}
	if desc := t.describe(); desc != "" {
		s.report(pos, "nondeterministic value (%s) flows into %s; simulation-visible state must be deterministic, or waive with //hmtx:detsafe <reason>", desc, what)
	}
}

// expr computes the taint of an expression, recursing structurally.
// Function literals are separate scopes and contribute nothing.
func (s *state) expr(e ast.Expr, cur tmap, check bool) taint {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if obj := identObj(s.pass, e); obj != nil {
			return cur[obj]
		}
		return nil
	case *ast.ParenExpr:
		return s.expr(e.X, cur, check)
	case *ast.UnaryExpr:
		return s.expr(e.X, cur, check)
	case *ast.StarExpr:
		return s.expr(e.X, cur, check)
	case *ast.BinaryExpr:
		return union(s.expr(e.X, cur, check), s.expr(e.Y, cur, check))
	case *ast.SelectorExpr:
		// Field read: tainted iff the base is. Qualified identifier
		// (pkg.Var): untracked, untainted.
		return s.expr(e.X, cur, check)
	case *ast.IndexExpr:
		return union(s.expr(e.X, cur, check), s.expr(e.Index, cur, check))
	case *ast.SliceExpr:
		return s.expr(e.X, cur, check)
	case *ast.TypeAssertExpr:
		return s.expr(e.X, cur, check)
	case *ast.CompositeLit:
		var t taint
		simOwner := ""
		if tv, ok := s.pass.TypesInfo.Types[e]; ok {
			if owner := namedOwner(tv.Type); owner != nil && simscope.IsSim(owner.Obj().Pkg().Path()) {
				simOwner = owner.Obj().Name()
			}
		}
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			et := s.expr(v, cur, check)
			if check && et.has() && simOwner != "" {
				s.sink(v.Pos(), et, fmt.Sprintf("simulation-visible struct %s (composite literal)", simOwner))
			}
			t = union(t, et)
		}
		return t
	case *ast.CallExpr:
		return tupleJoin(s.call(e, cur, check))
	case *ast.FuncLit:
		return nil
	default:
		return nil
	}
}

func tupleJoin(ts []taint) taint {
	var out taint
	for _, t := range ts {
		out = union(out, t)
	}
	return out
}

// call computes the per-result taint of a call (or conversion) expression
// and performs sink checks on its arguments.
func (s *state) call(e ast.Expr, cur tmap, check bool) []taint {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return []taint{s.expr(e, cur, check)}
	}

	// Type conversion? uintptr(unsafe.Pointer(x)) exposes an address.
	if tv, ok := s.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		t := s.expr(call.Args[0], cur, check)
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if atv, ok := s.pass.TypesInfo.Types[call.Args[0]]; ok {
				if ab, ok := atv.Type.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					t = union(t, taint{"pointer address (unsafe.Pointer)"})
				}
			}
		}
		return []taint{t}
	}

	// Builtins: len/cap of an order-tainted collection are still
	// deterministic; delete/make/new/copy introduce nothing.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new", "delete", "clear", "min", "max":
				for _, a := range call.Args {
					s.expr(a, cur, check)
				}
				return []taint{nil}
			}
		}
	}

	// Sorting re-establishes a deterministic order: ordering-kind taint on
	// the sorted collection dies here. (sort.Slice's less function and the
	// collection share the first argument slot across the sort APIs.)
	if callee := callgraph.StaticCallee(s.pass.TypesInfo, call); callee != nil && callee.Pkg() != nil {
		sorts := false
		switch callee.Pkg().Path() {
		case "sort":
			switch callee.Name() {
			case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
				sorts = true
			}
		case "slices":
			sorts = strings.HasPrefix(callee.Name(), "Sort")
		}
		if sorts {
			for _, a := range call.Args {
				s.killOrder(a, cur)
			}
		}
	}

	var argT []taint
	for _, a := range call.Args {
		argT = append(argT, s.expr(a, cur, check))
	}
	recvT := receiverTaint(s, call, cur, check)
	allArgs := tupleJoin(argT)
	allArgs = union(allArgs, recvT)

	nres := resultCount(s.pass, call)
	mk := func(t taint) []taint {
		out := make([]taint, nres)
		for i := range out {
			out[i] = t
		}
		return out
	}

	// Builtin sources.
	if src := sourceKind(s.pass, call); src != "" {
		return mk(union(allArgs, taint{src}))
	}

	// Statically known callee: use its summary if available.
	if callee := callgraph.StaticCallee(s.pass.TypesInfo, call); callee != nil {
		var sum *summary
		if local, ok := s.summaries[callee]; ok {
			sum = local
		} else {
			var imported summary
			if s.pass.ImportObjectFact(callee, &imported) {
				sum = &imported
			}
		}
		if sum != nil {
			for _, ps := range sum.Sinks {
				if ps.Param < len(argT) && argT[ps.Param].has() {
					pos := call.Args[ps.Param].Pos()
					s.sinkIfCheck(check, pos, argT[ps.Param],
						fmt.Sprintf("%s (inside %s)", ps.Sink, callee.Name()))
				}
			}
			out := make([]taint, nres)
			for i := range out {
				if i < len(sum.Results) {
					rt := sum.Results[i]
					if len(rt.Sources) > 0 {
						out[i] = union(out[i], taint(rt.Sources))
					}
					for _, p := range rt.Params {
						if p < len(argT) {
							out[i] = union(out[i], argT[p])
						}
					}
				}
			}
			return out
		}
		// No summary: a call into a simulation-visible package with a
		// tainted argument is itself a sink; otherwise propagate.
		if pkg := callee.Pkg(); pkg != nil && simscope.IsSim(pkg.Path()) {
			if allArgs.has() {
				s.sinkIfCheck(check, call.Pos(), allArgs,
					fmt.Sprintf("simulation API %s.%s", pkg.Name(), callee.Name()))
			}
			return mk(nil)
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "encoding/json" && allArgs.has() {
			s.sinkIfCheck(check, call.Pos(), allArgs, "JSON output (encoding/json)")
		}
	}

	// Method sinks by receiver package: (*json.Encoder).Encode and any
	// method on an internal/obs type.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := s.pass.TypesInfo.Types[sel.X]; ok && !tv.IsType() {
			if owner := namedOwner(tv.Type); owner != nil && owner.Obj().Pkg() != nil {
				p := owner.Obj().Pkg().Path()
				if p == "encoding/json" && sel.Sel.Name == "Encode" && allArgs.has() {
					s.sinkIfCheck(check, call.Pos(), allArgs, "JSON output (encoding/json)")
				}
			}
		}
	}

	// Unknown callee: taint propagates from arguments to results.
	return mk(allArgs)
}

func (s *state) sinkIfCheck(check bool, pos token.Pos, t taint, what string) {
	if check {
		s.sink(pos, t, what)
	}
}

func receiverTaint(s *state, call *ast.CallExpr, cur tmap, check bool) taint {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, isSel := s.pass.TypesInfo.Selections[sel]; isSel {
		return s.expr(sel.X, cur, check)
	}
	return nil
}

func resultCount(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return 1
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len()
	}
	return 1
}

// sourceKind classifies a call as a nondeterminism source, returning a
// description or "".
func sourceKind(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// reflect.Value.MapKeys / MapRange launder map order.
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if owner := namedOwner(s.Recv()); owner != nil && owner.Obj().Pkg() != nil &&
			owner.Obj().Pkg().Path() == "reflect" {
			if sel.Sel.Name == "MapKeys" || sel.Sel.Name == "MapRange" {
				return "map iteration order (reflect)"
			}
		}
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "wall-clock time"
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(name, "New") {
			return "ambient math/rand"
		}
	case "crypto/rand":
		return "crypto randomness"
	case "runtime":
		switch name {
		case "NumCPU", "NumGoroutine":
			return "host " + name
		}
	case "os":
		switch name {
		case "Getpid", "Environ", "Hostname":
			return "process/host identity (os." + name + ")"
		}
	case "maps":
		switch name {
		case "Keys", "Values", "All":
			return "map iteration order"
		}
	case "fmt":
		switch name {
		case "Sprintf", "Sprint", "Sprintln", "Errorf", "Appendf", "Fprintf":
			if formatHasPointerVerb(pass, call) {
				return "pointer-formatted address (%p)"
			}
		}
	}
	return ""
}

// formatHasPointerVerb reports whether any constant string argument of the
// call contains a %p verb.
func formatHasPointerVerb(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		if strings.Contains(constant.StringVal(tv.Value), "%p") {
			return true
		}
	}
	return false
}
