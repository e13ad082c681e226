package simscope

import "testing"

func TestCovers(t *testing.T) {
	for path, want := range map[string]bool{
		"hmtx/internal/engine":      true,
		"hmtx/internal/engine_test": true,
		"hmtx/internal/instr":       true,
		// Not a package today: the rule, not a list, puts it in scope.
		"hmtx/internal/newsim": true,
		"hmtx/cmd/hmtxsim":     false,
		"hmtx/tools/analyzers": false,
		"hmtx":                 false,
		"clock":                true,
	} {
		if got := Covers(path); got != want {
			t.Errorf("Covers(%q) = %t, want %t", path, got, want)
		}
	}
}
