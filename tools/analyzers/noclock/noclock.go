// Package noclock keeps wall-clock time, ambient randomness and host
// identity out of the simulation packages and the commands that drive them.
//
// The determinism contract (DESIGN.md) requires that a run be a pure
// function of Config: simulated time advances only through engine cycles,
// and every random decision flows from the single *rand.Rand the engine
// seeds with Config.Seed. The analyzer therefore forbids, in simulation
// packages (simscope) and under hmtx/cmd/, where a CLI fills in a Config:
//
//   - time.Now, time.Since, time.Until, time.Tick, time.After,
//     time.AfterFunc, time.NewTicker, time.NewTimer — wall-clock reads;
//   - package-level math/rand and math/rand/v2 functions (rand.Intn,
//     rand.Float64, rand.Shuffle, ...) — the process-global generator is
//     seeded randomly and shared across goroutines;
//   - RNG constructors (rand.New, rand.NewSource, rand.NewPCG,
//     rand.NewChaCha8, rand.NewZipf) anywhere except the engine package,
//     which owns seeding, and _test.go files, which may build private
//     generators with fixed seeds;
//   - since v2, the other sources whose value differs from run to run or
//     host to host: crypto/rand, runtime.NumCPU and runtime.NumGoroutine,
//     os.Getpid, os.Environ and os.Hostname, a %p verb in a constant fmt
//     format string, and uintptr(unsafe.Pointer(...)).
//
// Each source is flagged where it is called, whatever its value flows into.
// Methods on an existing *rand.Rand value are always allowed — that value
// necessarily came from an approved constructor.
package noclock

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/simscope"
)

var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc:  "forbids wall-clock reads, unseeded randomness, host identity and pointer addresses in simulation packages and commands",
	Run:  run,
}

var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
}

var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// hostIdentity lists the functions, by package, whose result depends on the
// host or the process rather than on Config.
var hostIdentity = map[string]map[string]bool{
	"runtime": {"NumCPU": true, "NumGoroutine": true},
	"os":      {"Getpid": true, "Environ": true, "Hostname": true},
}

// pointerVerb matches a %p verb, flags and width included; "%%" is removed
// first, so an escaped percent sign followed by p does not match.
var pointerVerb = regexp.MustCompile(`%[-+# 0]*[0-9]*p`)

func run(pass *analysis.Pass) {
	if !simscope.Covers(pass.PkgPath) && !strings.HasPrefix(pass.PkgPath, "hmtx/cmd/") {
		return
	}
	// The engine owns RNG construction: engine.New seeds exactly one
	// generator from cfg.Seed and everything else draws from it.
	inEngine := strings.HasSuffix(strings.TrimSuffix(pass.PkgPath, "_test"), "internal/engine")

	for _, file := range pass.Files {
		inTestFile := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n, inEngine || inTestFile)
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
}

// checkSelector reports a package-level function or variable that reads a
// forbidden source. mayConstruct permits the math/rand constructors.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr, mayConstruct bool) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	pkg, name := obj.Pkg().Path(), obj.Name()
	if pkg == "crypto/rand" {
		pass.Reportf(sel.Pos(), "crypto/rand.%s draws fresh randomness on every run; draw from the engine's Config.Seed-seeded *rand.Rand", name)
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // method values/calls, e.g. rng.Intn — allowed
	}
	switch {
	case pkg == "time":
		if forbiddenTime[name] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulated time must come from engine cycles", name)
		}
	case pkg == "math/rand" || pkg == "math/rand/v2":
		switch {
		case randConstructors[name]:
			if !mayConstruct {
				pass.Reportf(sel.Pos(), "rand.%s outside internal/engine; all simulation randomness must be seeded from Config.Seed by the engine", name)
			}
		default:
			pass.Reportf(sel.Pos(), "global rand.%s uses the shared, randomly-seeded generator; draw from the engine's Config.Seed-seeded *rand.Rand", name)
		}
	case hostIdentity[pkg][name]:
		pass.Reportf(sel.Pos(), "%s.%s depends on the host or process, not on Config; a run must not read it", obj.Pkg().Name(), name)
	}
}

// checkCall reports the two ways a value can expose a pointer address: a
// %p verb in a constant fmt format string, and uintptr(unsafe.Pointer(x)).
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr && len(call.Args) == 1 {
			if at, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
				if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					pass.Reportf(call.Pos(), "uintptr(unsafe.Pointer(...)) exposes an address, which differs from run to run")
				}
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || !strings.HasSuffix(fn.Name(), "f") {
		return
	}
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		if pointerVerb.MatchString(strings.ReplaceAll(constant.StringVal(tv.Value), "%%", "")) {
			pass.Reportf(arg.Pos(), "%%p in fmt.%s formats an address, which differs from run to run", fn.Name())
		}
		return // the first constant string is the format
	}
}
