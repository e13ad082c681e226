// Package hotalloc proves functions marked //hmtx:hotpath allocation-free at
// lint time (DESIGN.md §17). The hmtx fast path — the L1 load, the snoop
// handlers, line settling — is pinned dynamically by TestHotPathZeroAllocs,
// but an allocation that test's inputs never exercise (a panic-argument
// escape, a cold branch, growth past a fixture-sized map) slips through; PR 8
// found the install() `&ln` escape only by benchmark. This analyzer makes the
// contract static.
//
// A hotpath function may not, outside panic-bound blocks:
//
//   - call make or new, append to a slice, build a map literal, concatenate
//     strings, or convert between string and []byte/[]rune;
//   - box a non-pointer-shaped value into an interface (call arguments,
//     assignments, returns);
//   - let a composite literal, closure, or method value escape (non-escaping
//     ones are stack-allocated and allowed);
//   - let a local variable's address escape, unless both the variable's
//     declaration and the escape sink sit in a panic-bound block;
//   - let a parameter or receiver escape at all — an escaping entry variable
//     is heap-moved on every call, panic or not (the PR 8 `&ln` bug class);
//   - spawn goroutines or defer;
//   - call anything not itself provably allocation-free: callees are checked
//     transitively through the package call graph and, across packages,
//     through analyzer facts, so a hotpath function may call helpers that are
//     clean without marking them hot. Dynamic calls and functions with no
//     fact (the stdlib) are never clean outside panic-bound blocks, except
//     for a short allowlist of pure-compute stdlib packages (math, math/bits)
//     whose functions are machine-word arithmetic, mostly compiler
//     intrinsics, and cannot allocate.
//
// Deliberately allowed: map reads and writes (steady-state amortized-free,
// pinned dynamically), channel operations, by-value struct copies, and
// non-escaping literals/closures.
//
// The escape facts come from the valueflow layer
// (tools/analyzers/analysis/valueflow), which over-approximates: anything it
// reports non-escaping truly cannot escape, so a clean bill here is sound.
// The price is occasional false findings, which are waived in place:
//
//	h.sanTouch(c, idx) //hmtx:allocok sanitizer-only map insert, off on the measured path
//
// The reason is mandatory and a waiver that stops suppressing anything is
// reported as stale, exactly like //hmtx:detsafe. Test files are exempt.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/valueflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "proves //hmtx:hotpath functions statically allocation-free",
	Run:  run,
}

// cleanFact is exported for every declared function so importing packages can
// check callees without their syntax.
type cleanFact struct {
	Clean  bool
	Reason string // first finding, for the caller's diagnostic
	Leaks  []bool // valueflow parameter-leak summary
}

func (*cleanFact) AFact() {}

// A finding is one candidate allocation, pre-waiver.
type finding struct {
	pos token.Pos
	msg string
}

// knownCleanPkgs lists stdlib packages whose functions are pure machine-word
// compute (largely compiler intrinsics) and can never allocate. The stdlib is
// loaded from export data, never analyzed, so it carries no facts; without
// the allowlist every bits.TrailingZeros64 on the fast path would need a
// waiver.
var knownCleanPkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// A callEdge is a static call whose cleanliness is resolved in the
// interprocedural phase.
type callEdge struct {
	pos    token.Pos
	callee *types.Func
	gated  bool
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

func run(pass *analysis.Pass) (any, error) {
	var files []*ast.File
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, file)
	}

	cg := callgraph.Build(pass)
	waivers := collectAllocok(pass, files)
	hotLines := collectHotLines(pass, files)

	// Bottom-up valueflow summaries, iterated so leak information propagates
	// through in-package cycles.
	sums := map[*types.Func]*valueflow.Result{}
	leakOf := func(fn *types.Func) []bool {
		if s, ok := sums[fn]; ok {
			return s.ParamLeaks
		}
		var f cleanFact
		if pass.ImportObjectFact(fn, &f) {
			return f.Leaks
		}
		return nil
	}
	order := cg.PostOrder()
	isTestDecl := func(n ast.Node) bool {
		return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
	}
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, n := range order {
			if n.Decl.Body == nil || isTestDecl(n.Decl) {
				continue
			}
			r := valueflow.Analyze(pass, n.Decl, leakOf)
			if prev, ok := sums[n.Fn]; !ok || leaksDiffer(prev.ParamLeaks, r.ParamLeaks) {
				changed = true
			}
			sums[n.Fn] = r
		}
		if !changed {
			break
		}
	}

	// Local findings and call edges per function, waivers applied in place.
	locals := map[*types.Func][]finding{}
	edges := map[*types.Func][]callEdge{}
	hot := map[*types.Func]bool{}
	for _, n := range order {
		res := sums[n.Fn]
		if res == nil {
			continue
		}
		fs, es := localFindings(pass, n.Decl, res)
		locals[n.Fn] = waive(pass, waivers, fs)
		edges[n.Fn] = es
		hot[n.Fn] = isHot(pass, hotLines, n.Decl)
	}

	// Interprocedural phase: a function stays clean only while it has no
	// unwaived local findings and every non-gated static callee is clean.
	// Cleanliness only decays, so the fixpoint terminates.
	clean := map[*types.Func]bool{}
	reason := map[*types.Func]string{}
	for fn, fs := range locals {
		clean[fn] = len(fs) == 0
		if len(fs) > 0 {
			reason[fn] = fs[0].msg
		}
	}
	calleeClean := func(fn *types.Func) (bool, string) {
		if c, ok := clean[fn]; ok {
			return c, reason[fn]
		}
		var f cleanFact
		if pass.ImportObjectFact(fn, &f) {
			return f.Clean, f.Reason
		}
		if p := fn.Pkg(); p != nil && knownCleanPkgs[p.Path()] {
			return true, ""
		}
		return false, "no allocation-freedom fact"
	}
	callFindings := map[*types.Func][]finding{}
	for {
		changed := false
		for fn, es := range edges {
			if !clean[fn] && !hot[fn] {
				continue // already dirty; only hot functions need the details
			}
			var fs []finding
			for _, e := range es {
				if e.gated {
					continue
				}
				ok, why := calleeClean(e.callee)
				if ok {
					continue
				}
				msg := fmt.Sprintf("calls %s, which is not allocation-free", funcName(pass, e.callee))
				if why != "" {
					msg += " (" + why + ")"
				}
				fs = append(fs, finding{e.pos, msg})
			}
			fs = waive(pass, waivers, fs)
			callFindings[fn] = fs
			if len(fs) > 0 && clean[fn] {
				clean[fn] = false
				if reason[fn] == "" {
					reason[fn] = fs[0].msg
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Report, hot functions only; everything else just carries facts.
	for _, n := range order {
		if !hot[n.Fn] {
			continue
		}
		fs := append(append([]finding{}, locals[n.Fn]...), callFindings[n.Fn]...)
		sort.Slice(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
		for _, f := range fs {
			pass.Reportf(f.pos, "hotpath function %s: %s", n.Fn.Name(), f.msg)
		}
	}
	for _, a := range sortedWaivers(waivers) {
		switch {
		case a.reason == "":
			pass.Reportf(a.pos, "//hmtx:allocok annotation needs a reason")
		case !a.used:
			pass.Reportf(a.pos, "stale //hmtx:allocok annotation: no allocation is reported on this line")
		}
	}

	for fn, res := range sums {
		pass.ExportObjectFact(fn, &cleanFact{Clean: clean[fn], Reason: reason[fn], Leaks: res.ParamLeaks})
	}
	return nil, nil
}

func leaksDiffer(a, b []bool) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// localFindings walks one function body for intrinsic allocation sites and
// folds in the valueflow escape results. Call edges to static callees are
// returned separately for the interprocedural phase.
func localFindings(pass *analysis.Pass, decl *ast.FuncDecl, res *valueflow.Result) ([]finding, []callEdge) {
	var fs []finding
	var es []callEdge
	gated := res.PanicGated
	add := func(pos token.Pos, format string, args ...any) {
		fs = append(fs, finding{pos, fmt.Sprintf(format, args...)})
	}

	// Innermost enclosing signature for return-boxing checks: the decl plus
	// every function literal, matched by position.
	type sigSpan struct {
		lo, hi token.Pos
		sig    *types.Signature
	}
	spans := []sigSpan{{decl.Pos(), decl.End(), pass.TypesInfo.Defs[decl.Name].Type().(*types.Signature)}}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if sig, ok := pass.TypesInfo.Types[lit].Type.(*types.Signature); ok {
				spans = append(spans, sigSpan{lit.Pos(), lit.End(), sig})
			}
		}
		return true
	})
	sigAt := func(pos token.Pos) *types.Signature {
		best := spans[0].sig
		bestLo := spans[0].lo
		for _, s := range spans[1:] {
			if s.lo <= pos && pos <= s.hi && s.lo > bestLo {
				best, bestLo = s.sig, s.lo
			}
		}
		return best
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				if !gated(n.Pos()) && stringByteConv(pass, n) {
					add(n.Pos(), "conversion between string and byte/rune slice allocates")
				}
				if !gated(n.Pos()) {
					checkBox(pass, add, tv.Type, n.Args[0])
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if gated(n.Pos()) {
						return true
					}
					switch id.Name {
					case "make":
						add(n.Pos(), "make allocates")
					case "new":
						add(n.Pos(), "new allocates")
					case "append":
						add(n.Pos(), "append may grow its backing array")
					}
					return true
				}
			}
			callee := callgraph.StaticCallee(pass.TypesInfo, n)
			if callee != nil {
				es = append(es, callEdge{n.Pos(), callee, gated(n.Pos())})
			} else if !gated(n.Pos()) {
				add(n.Pos(), "dynamic call cannot be proven allocation-free")
			}
			// Interface-typed parameters box concrete arguments.
			if sig, ok := pass.TypesInfo.Types[n.Fun].Type.(*types.Signature); ok && !gated(n.Pos()) {
				for i, arg := range n.Args {
					if pt := paramType(sig, i, n); pt != nil {
						checkBox(pass, add, pt, arg)
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !gated(n.Pos()) {
				if tv, ok := pass.TypesInfo.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok && !gated(n.Pos()) {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					add(n.Pos(), "map literal allocates")
				}
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			if !gated(n.Pos()) {
				add(n.Pos(), "defer may allocate its frame")
			}
		case *ast.AssignStmt:
			if gated(n.Pos()) {
				return true
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if tv, ok := pass.TypesInfo.Types[lhs]; ok {
						checkBox(pass, add, tv.Type, n.Rhs[i])
					} else if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
							checkBox(pass, add, v.Type(), n.Rhs[i])
						}
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil || gated(n.Pos()) {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[n.Type]; ok {
				for _, val := range n.Values {
					checkBox(pass, add, tv.Type, val)
				}
			}
		case *ast.ReturnStmt:
			if gated(n.Pos()) {
				return true
			}
			sig := sigAt(n.Pos())
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					checkBox(pass, add, sig.Results().At(i).Type(), r)
				}
			}
		}
		return true
	})

	entry := map[*types.Var]bool{}
	for _, v := range res.EntryVars {
		entry[v] = true
	}
	for v, esc := range res.EscapedVars {
		if entry[v] {
			add(esc.Pos, "parameter %s escapes to the heap (%s) and is heap-moved on every call", v.Name(), esc.Reason)
			continue
		}
		if gated(esc.Pos) && gated(v.Pos()) {
			continue // allocation happens only on the panic-bound path
		}
		add(esc.Pos, "local %s escapes to the heap (%s)", v.Name(), esc.Reason)
	}
	for expr, esc := range res.EscapedExprs {
		if gated(esc.Pos) && gated(expr.Pos()) {
			continue
		}
		kind := "composite literal"
		switch expr.(type) {
		case *ast.FuncLit:
			kind = "closure"
		case *ast.SelectorExpr:
			kind = "method value"
		}
		add(expr.Pos(), "escaping %s allocates (%s)", kind, esc.Reason)
	}

	sort.Slice(fs, func(i, j int) bool {
		if fs[i].pos != fs[j].pos {
			return fs[i].pos < fs[j].pos
		}
		return fs[i].msg < fs[j].msg
	})
	return fs, es
}

// paramType returns the declared type of argument i, nil for positions that
// cannot box (no signature, f(g()) spreads, untracked).
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	if len(call.Args) == 1 {
		if _, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok && sig.Params().Len() != 1 {
			return nil // f(g()) multi-value spread
		}
	}
	switch {
	case sig.Variadic() && i >= sig.Params().Len()-1:
		if call.Ellipsis.IsValid() {
			return nil // passing an existing slice does not box per-element
		}
		if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	case i < sig.Params().Len():
		return sig.Params().At(i).Type()
	}
	return nil
}

// checkBox reports when assigning val to target type boxes a value into an
// interface with a heap allocation: the target is an interface, the value's
// static type is concrete, and the value is not a single pointer word (only
// pointers, channels, maps, funcs and unsafe.Pointer fit a bare iface data
// word; everything else — ints, structs, strings, slices — is copied to the
// heap).
func checkBox(pass *analysis.Pass, add func(token.Pos, string, ...any), target types.Type, val ast.Expr) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[val]
	if !ok || tv.Type == nil {
		return
	}
	vt := tv.Type
	if b, ok := vt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isIface := vt.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing box
	}
	if boxFree(vt) {
		return
	}
	// Constants of pointer-word size may hit the runtime's small-value cache,
	// but the general case allocates; stay conservative.
	add(val.Pos(), "boxing %s into %s allocates", types.TypeString(vt, types.RelativeTo(pass.Pkg)), types.TypeString(target, types.RelativeTo(pass.Pkg)))
}

func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func stringByteConv(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return false
	}
	from, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return false
	}
	return (isString(to.Type) && isByteOrRuneSlice(from.Type)) ||
		(isByteOrRuneSlice(to.Type) && isString(from.Type))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func funcName(pass *analysis.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + "." + name
	} else if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// isHot reports whether decl carries a //hmtx:hotpath marker, in its doc
// comment or on the line directly above the declaration.
func isHot(pass *analysis.Pass, hotLines map[lineKey]bool, decl *ast.FuncDecl) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if isHotMarker(c.Text) {
				return true
			}
		}
	}
	p := pass.Fset.Position(decl.Pos())
	return hotLines[lineKey{p.Filename, p.Line - 1}] || hotLines[lineKey{p.Filename, p.Line}]
}

// isHotMarker matches the directive form only — //hmtx:hotpath at the start
// of the comment — so prose that merely mentions the directive (this file,
// DESIGN.md quotes) does not mark anything hot.
func isHotMarker(text string) bool {
	body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*"), "*/")
	rest, ok := strings.CutPrefix(body, "hmtx:hotpath")
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

func collectHotLines(pass *analysis.Pass, files []*ast.File) map[lineKey]bool {
	lines := map[lineKey]bool{}
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if isHotMarker(c.Text) {
					p := pass.Fset.Position(c.Pos())
					lines[lineKey{p.Filename, p.Line}] = true
				}
			}
		}
	}
	return lines
}

// waive drops findings covered by an //hmtx:allocok annotation on the same
// line or the line above, marking the annotation used.
func waive(pass *analysis.Pass, ann map[lineKey]*annotation, fs []finding) []finding {
	var out []finding
	for _, f := range fs {
		p := pass.Fset.Position(f.pos)
		a := ann[lineKey{p.Filename, p.Line}]
		if a == nil {
			a = ann[lineKey{p.Filename, p.Line - 1}]
		}
		if a != nil {
			a.used = true
			continue
		}
		out = append(out, f)
	}
	return out
}

func collectAllocok(pass *analysis.Pass, files []*ast.File) map[lineKey]*annotation {
	ann := map[lineKey]*annotation{}
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/")
				text, ok := strings.CutPrefix(body, "hmtx:allocok")
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

func sortedWaivers(ann map[lineKey]*annotation) []*annotation {
	out := make([]*annotation, 0, len(ann))
	for _, a := range ann {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}
