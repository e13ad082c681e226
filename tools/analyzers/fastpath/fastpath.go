// Package fastpath keeps instrumentation off the simulator's fast path.
//
// The instrument contract (DESIGN.md §10) is that a run with an instrument
// disabled pays one nil-check per potential record: internal/engine and
// internal/memsys call the instrument hook (internal/instr) once per decision
// point, and the hook fans out to each instrument. Every guarded call in those
// three packages must sit in the body of an if statement whose condition
// calls Enabled on a receiver of the same kind, so no event is built, no
// charge made, no row appended and no bucket touched when the instrument is
// off. The guarded calls are listed in gates, one row per kind:
//
//   - instr.Hook: every On* method (the decision points);
//   - obs.Tracer: Emit;
//   - prof.Collector: every method but Enabled (Charge, ChargeLine, the
//     heatmap counters, CoreDone, RunEnd);
//   - metrics.Sampler, metrics.Recorder and metrics.LatHists, one row each:
//     every method but Enabled. A metrics.Hist has no Enabled of its own; it
//     belongs to a LatHists bundle, whose guard covers it.
//
// Since v3 each metrics kind is its own row, so a Lat.Enabled() guard no
// longer opens the gate for a Conflicts.Record. Enabled itself is the guard
// and is exempt. Test files are exempt: tests
// drive the instruments deliberately and are not on the simulated fast path.
package fastpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"hmtx/tools/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fastpath",
	Doc:  "requires every instrument-hook call, trace emit, profiler charge and metrics-instrument call in memsys/engine/instr to be inside an Enabled() guard",
	Run:  run,
}

// A gate names one instrument kind and how a finding tells the user to
// guard it.
type gate struct {
	pkg    string   // package-path suffix of the instrument
	types  []string // receiver type names: the one with Enabled, then the types it bundles
	method string   // prefix of the guarded methods; "" guards every method but Enabled
	guard  string   // the guard the message suggests
	why    string   // what the guard keeps the fast path
}

var gates = []gate{
	{"internal/instr", []string{"Hook"}, "On", "if h.Enabled()", "one branch when no instrument is attached"},
	{"internal/obs", []string{"Tracer"}, "Emit", "if tr.Enabled(cat)", "allocation-free"},
	{"internal/prof", []string{"Collector"}, "", "if p.Enabled()", "free when profiling is off"},
	{"internal/metrics", []string{"Sampler"}, "", "if s.Enabled()", "free when the series is off"},
	{"internal/metrics", []string{"Recorder"}, "", "if r.Enabled()", "free when the conflict recorder is off"},
	{"internal/metrics", []string{"LatHists", "Hist"}, "", "if lat.Enabled()", "free when the histograms are off"},
}

// guardBody is the body of an if statement whose condition consults Enabled
// on the instruments of the gates set in rows (bit i is gates[i]).
type guardBody struct {
	lo, hi token.Pos
	rows   uint
}

func run(pass *analysis.Pass) {
	pkg := strings.TrimSuffix(pass.PkgPath, "_test")
	if !strings.HasSuffix(pkg, "internal/memsys") && !strings.HasSuffix(pkg, "internal/engine") &&
		!strings.HasSuffix(pkg, "internal/instr") {
		return
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		// First pass: the guard bodies. A call inside one (at any nesting
		// depth) is guarded for the gates its condition consults.
		var guards []guardBody
		ast.Inspect(file, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok {
				if rows := enabledRows(pass, ifs.Cond); rows != 0 {
					guards = append(guards, guardBody{ifs.Body.Pos(), ifs.Body.End(), rows})
				}
			}
			return true
		})
		// Second pass: every guarded call must fall inside a guard body of
		// its own gate.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			row, recv, method := instrumentCall(pass, call)
			if row < 0 || method == "Enabled" {
				return true
			}
			g := gates[row]
			if !strings.HasPrefix(method, g.method) {
				return true
			}
			for _, gb := range guards {
				if gb.rows&(1<<row) != 0 && gb.lo <= call.Pos() && call.Pos() < gb.hi {
					return true
				}
			}
			pass.Reportf(call.Pos(), "%s.%s.%s outside an Enabled() guard; wrap it in `%s { ... }` to keep the fast path %s",
				recv.Pkg().Name(), recv.Name(), method, g.guard, g.why)
			return true
		})
	}
}

// enabledRows returns the gates whose Enabled method the expression calls,
// however the calls are combined (negation, &&, ||).
func enabledRows(pass *analysis.Pass, cond ast.Expr) uint {
	var rows uint
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if row, _, method := instrumentCall(pass, call); row >= 0 && method == "Enabled" {
				rows |= 1 << row
			}
		}
		return true
	})
	return rows
}

// instrumentCall reports which gate's instrument type call invokes a method
// on (a value of the type or a pointer to it), with the receiver type and
// method name; row is -1 when the call is not an instrument method call.
func instrumentCall(pass *analysis.Pass, call *ast.CallExpr) (row int, recv *types.TypeName, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return -1, nil, ""
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return -1, nil, ""
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return -1, nil, ""
	}
	obj := named.Obj()
	for i, g := range gates {
		if strings.HasSuffix(obj.Pkg().Path(), g.pkg) && slices.Contains(g.types, obj.Name()) {
			return i, obj, sel.Sel.Name
		}
	}
	return -1, nil, ""
}
