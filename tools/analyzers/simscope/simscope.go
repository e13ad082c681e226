// Package simscope decides which packages the determinism lint rules apply
// to. The simulator must be bit-reproducible for a fixed Config.Seed (see
// DESIGN.md "Determinism contract"), so the rules cover every package that
// computes simulated time, protocol state, or reported figures: all of
// hmtx/internal/. A new internal package is covered without an edit here.
package simscope

import "strings"

// Covers reports whether the lint rules apply to the package with the given
// import path. Paths outside the hmtx module (analyzer test fixtures) are
// always covered. A "_test" suffix (the loader's marker for external test
// packages) is ignored, so a package and its foo_test package are scoped
// identically.
func Covers(path string) bool {
	if path != "hmtx" && !strings.HasPrefix(path, "hmtx/") {
		return true
	}
	path = strings.TrimSuffix(path, "_test")
	return strings.HasPrefix(path, "hmtx/internal/")
}
