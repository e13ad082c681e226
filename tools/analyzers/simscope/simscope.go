// Package simscope decides which packages the determinism lint rules apply
// to. The simulator must be bit-reproducible for a fixed Config.Seed (see
// DESIGN.md "Determinism contract"), so the rules cover exactly the packages
// that compute simulated time, protocol state, or reported figures.
package simscope

import "strings"

// SimPackages are the hmtx packages whose behaviour feeds simulation state
// or experiment output, and therefore must be deterministic. detflow also
// treats their types and APIs as the simulation-visible sinks.
var SimPackages = map[string]bool{
	"hmtx/internal/check":       true,
	"hmtx/internal/ckpt":        true,
	"hmtx/internal/engine":      true,
	"hmtx/internal/experiments": true,
	"hmtx/internal/hmtx":        true,
	"hmtx/internal/instr":       true,
	"hmtx/internal/memsys":      true,
	"hmtx/internal/metrics":     true,
	"hmtx/internal/obs":         true,
	"hmtx/internal/paradigm":    true,
	"hmtx/internal/power":       true,
	"hmtx/internal/prof":        true,
	"hmtx/internal/smtx":        true,
	"hmtx/internal/stats":       true,
	"hmtx/internal/vid":         true,
	"hmtx/internal/workloads":   true,
}

// IsSim reports whether path is one of SimPackages. A "_test" suffix (the
// loader's marker for external test packages) is ignored, so a package and
// its foo_test package are scoped identically.
func IsSim(path string) bool {
	return SimPackages[strings.TrimSuffix(path, "_test")]
}

// Covers reports whether the lint rules apply to the package with the given
// import path. Paths outside the hmtx module (analyzer test fixtures) are
// always covered; hmtx packages are covered only when listed in SimPackages.
func Covers(path string) bool {
	if path != "hmtx" && !strings.HasPrefix(path, "hmtx/") {
		return true
	}
	return IsSim(path)
}
