// Package txpath checks the MTX lifecycle of code driving engine.Env with a
// path-sensitive walk over each function's control-flow graph. It carries a
// set of exact per-path states — which VID the open epoch belongs to and
// which VIDs have already committed — so it enforces the paper's
// per-transaction rules (§4.6–4.7), not just balance:
//
//   - every Begin(seq) must reach a Commit, Abort or Begin(0) detach on
//     every path out of the function (a commit-less branch leaks the epoch),
//     and must not run while another transaction is open on the path (a
//     loop iteration that exits open double-Begins on the next pass); a
//     deferred Commit/Abort/Begin(0) discharges the exit obligation;
//   - a VID that has committed must not be begun again until its backing
//     variable takes a fresh value (VIDs are unique until a VID reset, §4.6;
//     re-attaching a detached-but-uncommitted VID is the legal stage-2 idiom
//     and is not flagged);
//   - Commit of one VID while a different transaction is open is a protocol
//     violation (the commit process commits with no epoch open, which is
//     legal — that is the SMTX commit-process idiom);
//   - tracked memory accesses (Load/Store) must happen inside an open
//     epoch — enforced only in functions that open transactions themselves,
//     since sequential baselines and workload stages run non-speculatively;
//   - the Env handle must not escape the synchronous scope it was handed to:
//     captured by a goroutine, returned, sent, or stored into a struct,
//     slice, map, global or composite literal. Env methods may only be
//     called from the program's own coroutine (internal/engine/env.go), and
//     a stored handle outlives the scope the lifecycle rules reason about.
//
// The memory-access rule is interprocedural: a function that performs
// tracked accesses through an *engine.Env parameter (directly or via its
// own static callees) exports a TxFact, and calls to it count as accesses
// at the call site.
//
// VID keys are tracked symbolically: a constant argument is its value, an
// identifier is its object until the variable is reassigned (a loop that
// rebinds seq each iteration begins a genuinely fresh VID). Arguments the
// analysis cannot name are unconstrained. Test files and internal/engine
// itself are exempt: engine tests exercise unbalanced sequences on purpose,
// and the engine constructs the handles it hands to programs.
package txpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name:    "txpath",
	Doc:     "path-sensitively checks that every MTX Begin reaches one commit-or-abort on all paths, VIDs are not reused after committing, tracked memory accesses happen inside an open epoch, and Env handles do not escape",
	Version: "2",
	Run:     run,
}

// TxFact marks a function that performs tracked memory accesses through an
// *engine.Env parameter without opening its own transaction: callers must
// have an epoch open at the call site. Accesses lists the parameter indices
// the accesses flow through.
type TxFact struct {
	Accesses []int
}

func (*TxFact) AFact() {}

// maxStates bounds the per-block state set; the VID-key alphabet of a
// function is finite so the fixpoint always terminates, this is a safety
// rail against pathological blowup.
const maxStates = 32

func run(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.PkgPath, "internal/engine") {
		// The engine implements the epoch machinery; the lifecycle rules
		// are the contract it enforces on clients.
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		cg:        callgraph.Build(pass),
		summaries: make(map[*types.Func]*TxFact),
		reported:  make(map[token.Pos]bool),
	}
	c.computeFacts()
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(fn.Body)
			}
			return true
		})
		checkEscapes(pass, file)
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	cg        *callgraph.Graph
	summaries map[*types.Func]*TxFact
	// reported dedups diagnostics: the fixpoint visits a program point once
	// per distinct reaching state, and several states can violate the same
	// rule at the same position.
	reported map[token.Pos]bool
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// computeFacts summarizes, bottom-up over the package call graph, which
// functions reach tracked memory through an env parameter, and exports the
// summaries as facts for importing packages. Functions that open their own
// transactions manage their own epoch and are not summarized.
func (c *checker) computeFacts() {
	order := c.cg.PostOrder()
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, n := range order {
			if n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			params := c.envParams(n.Fn)
			if len(params) == 0 || c.opensEpoch(n.Decl.Body) {
				continue
			}
			acc := make(map[int]bool)
			ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // runs when invoked, not when this fn is called
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if kind, _ := c.envCall(call); kind == opAccess {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if i, ok := c.paramIndex(params, sel.X); ok {
							acc[i] = true
						}
					}
					return true
				}
				if callee := callgraph.StaticCallee(c.pass.TypesInfo, call); callee != nil {
					for _, j := range c.factFor(callee) {
						if j < len(call.Args) {
							if i, ok := c.paramIndex(params, call.Args[j]); ok {
								acc[i] = true
							}
						}
					}
				}
				return true
			})
			if len(acc) == 0 {
				continue
			}
			idx := make([]int, 0, len(acc))
			for i := range acc {
				idx = append(idx, i)
			}
			sort.Ints(idx)
			if old := c.summaries[n.Fn]; old == nil || len(old.Accesses) != len(idx) {
				c.summaries[n.Fn] = &TxFact{Accesses: idx}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, fact := range c.summaries {
		c.pass.ExportObjectFact(fn, fact)
	}
}

// factFor returns the accessed-parameter indices of fn, consulting this
// package's in-progress summaries first and imported facts otherwise.
func (c *checker) factFor(fn *types.Func) []int {
	if sum, ok := c.summaries[fn]; ok {
		return sum.Accesses
	}
	var fact TxFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Accesses
	}
	return nil
}

// envParams maps each *engine.Env parameter object of fn to its index.
func (c *checker) envParams(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var params map[types.Object]int
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isEnvType(p.Type()) {
			if params == nil {
				params = make(map[types.Object]int)
			}
			params[p] = i
		}
	}
	return params
}

// paramIndex resolves an expression to an env parameter's index.
func (c *checker) paramIndex(params map[types.Object]int, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	i, ok := params[c.pass.TypesInfo.Uses[id]]
	return i, ok
}

// Path states. epoch is the key of the open transaction ("" when closed,
// "?" when open under a key the analysis cannot name); committed holds the
// keys of VIDs that have committed and whose backing value has not changed
// since.
type pstate struct {
	epoch     string
	openPos   token.Pos
	committed map[string]bool
}

func (s pstate) clone() pstate {
	m := make(map[string]bool, len(s.committed))
	for k := range s.committed {
		m[k] = true
	}
	return pstate{epoch: s.epoch, openPos: s.openPos, committed: m}
}

// canon is the state's identity for set membership and join.
func (s pstate) canon() string {
	keys := make([]string, 0, len(s.committed))
	for k := range s.committed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.epoch + "|" + strings.Join(keys, ",")
}

// stateSet is the per-block dataflow value: every distinct state some path
// can reach the block in.
type stateSet map[string]pstate

// Epoch-relevant events of one statement, in evaluation order.
type opKind int

const (
	opBegin  opKind = iota // Begin with a non-zero (or unknown) sequence
	opDetach               // Begin(0)
	opCommit
	opAbort
	opAccess // tracked memory access (Load/Store or summarized callee)
	opKill   // the variable behind a VID key took a new value
)

type event struct {
	kind opKind
	key  string // VID key; "" when unknown
	pos  token.Pos
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	if !c.opensEpoch(body) && !c.usesEnv(body) {
		return
	}
	hasBegin := c.opensEpoch(body)
	deferred := false
	for _, s := range body.List {
		if d, ok := s.(*ast.DeferStmt); ok {
			if kind, _ := c.envCall(d.Call); kind == opDetach || kind == opCommit || kind == opAbort {
				deferred = true
			}
		}
	}

	g := cfg.New(body)
	// Cache each block's event list; transfer runs once per fixpoint visit.
	events := make([][]event, len(g.Blocks))
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			c.events(n, &events[blk.Index])
		}
	}

	init := stateSet{pstate{committed: map[string]bool{}}.canon(): {committed: map[string]bool{}}}
	transfer := func(blk *cfg.Block, in stateSet) stateSet {
		out := make(stateSet, len(in))
		for _, st := range in {
			cur := st.clone()
			for _, ev := range events[blk.Index] {
				cur = c.apply(cur, ev, hasBegin)
			}
			out[cur.canon()] = cur
		}
		return out
	}
	join := func(into, from stateSet, first bool) (stateSet, bool) {
		if first || into == nil {
			merged := make(stateSet, len(from))
			for k, v := range from {
				merged[k] = v
			}
			return merged, true
		}
		changed := false
		for k, v := range from {
			if _, ok := into[k]; !ok && len(into) < maxStates {
				into[k] = v
				changed = true
			}
		}
		return into, changed
	}
	in := cfg.Forward(g, init, transfer, join)

	if deferred {
		return
	}
	// Every state reaching the synthetic exit must have resolved its epoch.
	exitIn := in[g.Exit.Index]
	var leaks []pstate
	for _, st := range exitIn {
		if st.epoch != "" {
			leaks = append(leaks, st)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].openPos < leaks[j].openPos })
	for _, st := range leaks {
		c.reportOnce(st.openPos, "transaction opened here may reach function return with the epoch still open; close it with Commit, Abort or Begin(0) on every path")
	}
}

// apply advances one state across one event, reporting violations.
func (c *checker) apply(st pstate, ev event, hasBegin bool) pstate {
	switch ev.kind {
	case opBegin:
		if st.epoch != "" {
			c.reportOnce(ev.pos, "Begin while transaction %s is still open on this path; close it first", describeKey(st.epoch))
		} else if ev.key != "" && st.committed[ev.key] {
			c.reportOnce(ev.pos, "Begin reuses VID %s, which already committed on this path; VIDs stay unique until a VID reset", describeKey(ev.key))
		}
		st.epoch = ev.key
		if st.epoch == "" {
			st.epoch = "?"
		}
		st.openPos = ev.pos
	case opDetach:
		st.epoch = ""
	case opCommit:
		if st.epoch != "" && st.epoch != "?" && ev.key != "" && ev.key != st.epoch {
			c.reportOnce(ev.pos, "Commit of VID %s while transaction %s is open on this path", describeKey(ev.key), describeKey(st.epoch))
		}
		st.epoch = ""
		if ev.key != "" {
			st.committed[ev.key] = true
		}
	case opAbort:
		// Aborting while closed squashes another core's speculation (the
		// e.Abort(seq+1) early-exit idiom) and is legal; an aborted VID may
		// be begun again on retry.
		st.epoch = ""
	case opAccess:
		if hasBegin && st.epoch == "" {
			c.reportOnce(ev.pos, "tracked memory access outside an open transaction epoch on this path; speculative state must be written between Begin and Commit/Abort/Begin(0)")
		}
	case opKill:
		delete(st.committed, ev.key)
		if st.epoch == ev.key {
			st.epoch = "?" // still open, but the key no longer names it
		}
	}
	return st
}

// events collects the epoch-relevant events of n in evaluation order:
// calls inside an assignment's right-hand side happen before the
// assignment rebinds its targets.
func (c *checker) events(n ast.Node, out *[]event) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // separate scope, checked on its own
		case *ast.DeferStmt, *ast.GoStmt:
			// Only the arguments are evaluated here; the call itself runs
			// at function exit (deferred closes are credited separately)
			// or on another goroutine.
			var call *ast.CallExpr
			if d, ok := m.(*ast.DeferStmt); ok {
				call = d.Call
			} else {
				call = m.(*ast.GoStmt).Call
			}
			for _, a := range call.Args {
				c.events(a, out)
			}
			return false
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				c.events(r, out)
			}
			for _, l := range m.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if k := c.identKey(id); k != "" {
						*out = append(*out, event{kind: opKill, key: k, pos: id.Pos()})
					}
				} else {
					c.events(l, out)
				}
			}
			return false
		case *ast.IncDecStmt:
			if id, ok := m.X.(*ast.Ident); ok {
				if k := c.identKey(id); k != "" {
					*out = append(*out, event{kind: opKill, key: k, pos: id.Pos()})
				}
				return false
			}
			return true
		case *ast.ValueSpec:
			for _, v := range m.Values {
				c.events(v, out)
			}
			for _, name := range m.Names {
				if k := c.identKey(name); k != "" {
					*out = append(*out, event{kind: opKill, key: k, pos: name.Pos()})
				}
			}
			return false
		case *ast.CallExpr:
			c.events(m.Fun, out)
			for _, a := range m.Args {
				c.events(a, out)
			}
			c.classify(m, out)
			return false
		}
		return true
	})
}

// classify appends the events of one call expression.
func (c *checker) classify(call *ast.CallExpr, out *[]event) {
	kind, key := c.envCall(call)
	if kind >= 0 {
		*out = append(*out, event{kind: kind, key: key, pos: call.Pos()})
		return
	}
	callee := callgraph.StaticCallee(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	for _, j := range c.factFor(callee) {
		if j < len(call.Args) {
			if isEnvExpr(c.pass, call.Args[j]) {
				*out = append(*out, event{kind: opAccess, pos: call.Pos()})
				return
			}
		}
	}
}

// envCall classifies a call on an engine.Env receiver; kind is -1 for
// calls that do not affect the epoch.
func (c *checker) envCall(call *ast.CallExpr) (opKind, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isEnvExpr(c.pass, sel.X) {
		return -1, ""
	}
	argKey := func() string {
		if len(call.Args) == 1 {
			return c.vidKey(call.Args[0])
		}
		return ""
	}
	switch sel.Sel.Name {
	case "Begin":
		k := argKey()
		if k == "c:0" {
			return opDetach, ""
		}
		return opBegin, k
	case "Commit":
		return opCommit, argKey()
	case "Abort":
		return opAbort, argKey()
	case "Load", "Store":
		return opAccess, ""
	}
	return -1, ""
}

// vidKey names a sequence-number argument symbolically: constants by value,
// identifiers by the variable object (stable until reassignment),
// conversions by their operand. "" means the analysis cannot name it.
func (c *checker) vidKey(e ast.Expr) string {
	e = ast.Unparen(e)
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return "c:" + tv.Value.String()
	}
	if id, ok := e.(*ast.Ident); ok {
		return c.identKey(id)
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return c.vidKey(call.Args[0])
		}
	}
	return ""
}

func (c *checker) identKey(id *ast.Ident) string {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		return fmt.Sprintf("v:%d", v.Pos())
	}
	return ""
}

// describeKey renders a VID key for diagnostics.
func describeKey(k string) string {
	switch {
	case strings.HasPrefix(k, "c:"):
		return strings.TrimPrefix(k, "c:")
	case k == "?":
		return "(unknown)"
	default:
		return "(variable)"
	}
}

// opensEpoch reports whether body contains a non-detach Begin outside
// nested function literals.
func (c *checker) opensEpoch(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if kind, _ := c.envCall(call); kind == opBegin {
				found = true
			}
		}
		return true
	})
	return found
}

// usesEnv reports whether body makes any Env call at all; functions that
// never touch the Env are skipped wholesale.
func (c *checker) usesEnv(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if isEnvExpr(c.pass, sel.X) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isEnvType reports whether t is engine.Env or a pointer to it.
func isEnvType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Env" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/engine")
}

// checkEscapes reports Env handles leaving the synchronous scope they were
// handed to: captured by a goroutine, returned, stored into a struct, slice,
// map, global or channel.
func checkEscapes(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			reportEnvRefs(pass, n, "engine.Env handle captured by a goroutine; Env methods may only be called from the program's own goroutine")
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isEnvExpr(pass, r) {
					pass.Reportf(r.Pos(), "engine.Env handle returned; the handle must not outlive the program function it was passed to")
				}
			}
		case *ast.SendStmt:
			if isEnvExpr(pass, n.Value) {
				pass.Reportf(n.Value.Pos(), "engine.Env handle sent on a channel; the handle must not cross goroutines")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isEnvExpr(pass, n.Rhs[i]) && storesBeyondScope(pass, lhs) {
					pass.Reportf(n.Rhs[i].Pos(), "engine.Env handle stored outside the transaction scope; keep the handle in locals")
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isEnvExpr(pass, el) {
					pass.Reportf(el.Pos(), "engine.Env handle stored in a composite literal; keep the handle in locals")
				}
			}
		}
		return true
	})
}

// reportEnvRefs reports each Env-typed object referenced inside n but
// declared outside it (a capture), once per object.
func reportEnvRefs(pass *analysis.Pass, n ast.Node, msg string) {
	seen := map[types.Object]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] || !isEnvType(obj.Type()) {
			return true
		}
		if obj.Pos() >= n.Pos() && obj.Pos() < n.End() {
			return true // declared inside the goroutine; stays there
		}
		seen[obj] = true
		pass.Reportf(id.Pos(), "%s", msg)
		return true
	})
}

func isEnvExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isEnvType(tv.Type)
}

// storesBeyondScope reports whether assigning to lhs makes the value outlive
// the enclosing function: a package-level variable, a struct field, or an
// element of a slice or map.
func storesBeyondScope(pass *analysis.Pass, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope()
		}
		return false
	case *ast.SelectorExpr:
		// A struct field, or a qualified package-level identifier (pkg.Var).
		sel, ok := pass.TypesInfo.Selections[lhs]
		return !ok || sel.Kind() == types.FieldVal
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
