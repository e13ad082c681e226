package check

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hmtx/internal/memsys"
)

// TestExhaustiveClean explores fast bounds to exhaustion and requires zero
// property violations and the exact state, edge and depth counts each bound
// has always produced: a change to the canonical encoding or the stimulus
// alphabet that merges or splits states moves them. The CI model-check job
// runs the wider evict+wrongpath bound through cmd/hmtxcheck and pins its
// state count the same way; keeping that out of the unit suite keeps
// `go test ./...` (and especially -race) quick.
func TestExhaustiveClean(t *testing.T) {
	for _, tc := range []struct {
		cfg                  Config
		states, edges, depth int
	}{
		{Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true}, 3820, 64244, 13},
		{Config{Cores: 2, Addrs: 1, VIDs: 1, WrongPath: true}, 3256, 51728, 10},
	} {
		cfg := tc.cfg
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Violation != nil {
			t.Fatalf("violation at %+v:\n%s", cfg, sum.Violation.Trace())
		}
		if !sum.Exhausted || sum.Truncated {
			t.Fatalf("bound %+v not exhausted: states=%d truncated=%t", cfg, sum.States, sum.Truncated)
		}
		if sum.States != tc.states || sum.Edges != tc.edges || sum.Depth != tc.depth {
			t.Fatalf("exploration at %+v: states=%d edges=%d depth=%d, want %d, %d, %d",
				cfg, sum.States, sum.Edges, sum.Depth, tc.states, tc.edges, tc.depth)
		}
		if !sum.OK() {
			t.Fatal("OK() must be true for a clean exhaustive run")
		}
	}
}

// injectedBugs pairs each re-injectable protocol bug (both were found by this
// checker and fixed in internal/memsys) with the smallest bounds that expose
// it.
var injectedBugs = []struct {
	name string
	cfg  Config
}{
	{memsys.BugStaleCopyOnConvert, Config{Cores: 2, Addrs: 1, VIDs: 1}},
	{memsys.BugDupVersionOnMigrate, Config{Cores: 2, Addrs: 1, VIDs: 2}},
}

// TestInjectedBugsCaught re-introduces each fixed protocol bug via
// Config.InjectBug and requires a counterexample whose replay reproduces the
// violation on its final step.
func TestInjectedBugsCaught(t *testing.T) {
	for _, tc := range injectedBugs {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Violation != nil {
				t.Fatalf("bounds violate even without the bug:\n%s", clean.Violation.Trace())
			}

			cfg := tc.cfg
			cfg.InjectBug = tc.name
			sum, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ce := sum.Violation
			if ce == nil {
				t.Fatalf("injected bug %q not caught (states=%d)", tc.name, sum.States)
			}
			if len(ce.Steps) == 0 || len(ce.Steps) > 8 {
				t.Fatalf("counterexample not minimal-looking: %d steps", len(ce.Steps))
			}
			if ce.Property == "unknown" || ce.Detail == "" {
				t.Fatalf("counterexample missing property/detail: %+v", ce)
			}
			if sum.OK() {
				t.Fatal("OK() must be false on a violation")
			}

			// The trace must replay: same steps from the initial state hit
			// the same violation on the final step and no earlier.
			notes, rerr := cfg.Replay(ce.Steps)
			if rerr == nil {
				t.Fatalf("replay of counterexample did not reproduce the violation\ntrace:\n%s", ce.Trace())
			}
			if rerr.Error() != ce.Property+": "+ce.Detail {
				t.Fatalf("replay violation %q != reported %q", rerr, ce.Property+": "+ce.Detail)
			}
			if len(notes) != len(ce.Steps) {
				t.Fatalf("replay stopped after %d of %d steps", len(notes), len(ce.Steps))
			}
			if prefix := ce.Steps[:len(ce.Steps)-1]; len(prefix) > 0 {
				if _, perr := cfg.Replay(prefix); perr != nil {
					t.Fatalf("violation fires before the final step: %v", perr)
				}
			}

			// The trace must render every step in hmtxtrace format.
			text := ce.Trace()
			if got := strings.Count(text, "\n"); got != len(ce.Steps) {
				t.Fatalf("Trace() has %d lines, want %d:\n%s", got, len(ce.Steps), text)
			}
		})
	}
}

// TestDeterministicOutput runs the same bounds twice and requires
// byte-identical text and JSON reports — the property the CI job and any
// triage workflow depend on. Run with -race this also shakes out unsynchronised
// state in the search.
func TestDeterministicOutput(t *testing.T) {
	cfg := Config{Cores: 2, Addrs: 1, VIDs: 2, InjectBug: memsys.BugDupVersionOnMigrate}
	run := func() (string, []byte) {
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return sum.Text(), js
	}
	t1, j1 := run()
	t2, j2 := run()
	if t1 != t2 {
		t.Fatalf("Text() differs across runs:\n%s\n---\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON() differs across runs:\n%s\n---\n%s", j1, j2)
	}
	if !strings.Contains(t1, "VIOLATION") {
		t.Fatalf("Text() of a violating run must say VIOLATION:\n%s", t1)
	}
}

// TestBoundsRespected checks MaxStates truncation and MaxDepth limiting.
func TestBoundsRespected(t *testing.T) {
	sum, err := Run(Config{Cores: 2, Addrs: 1, VIDs: 1, MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Truncated || sum.Exhausted {
		t.Fatalf("MaxStates=10 must truncate: %+v", sum)
	}

	shallow, err := Run(Config{Cores: 2, Addrs: 1, VIDs: 1, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Depth > 2 {
		t.Fatalf("MaxDepth=2 exceeded: depth=%d", shallow.Depth)
	}
	full, err := Run(Config{Cores: 2, Addrs: 1, VIDs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.States >= full.States {
		t.Fatalf("depth-limited search found %d states, full search %d", shallow.States, full.States)
	}
}

// TestValidate rejects out-of-range bounds and unknown injected bugs.
func TestValidate(t *testing.T) {
	bad := []Config{
		{Cores: 9},
		{Addrs: 12},
		{VIDs: 99},
		{StoreVals: 42},
		{L1Ways: -1},
		{MaxStates: -5},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) accepted invalid bounds", cfg)
		}
	}
	if _, err := Run(Config{InjectBug: "no-such-bug"}); err == nil {
		t.Error("unknown InjectBug accepted")
	}
}

// TestOracleCanonical: the canonical encoding of a checker state covers the
// oracle. Its fields are listed here, so a new one fails until clone and
// appendCanon handle it, and changing a committed value or an outstanding
// write moves the encoding, so the visited set cannot merge states whose
// oracles disagree.
func TestOracleCanonical(t *testing.T) {
	typ := reflect.TypeOf(oracle{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		names = append(names, typ.Field(i).Name)
	}
	if got, want := strings.Join(names, " "), "addrs vids committed pending"; got != want {
		t.Errorf("oracle fields are %q, clone and appendCanon were written for %q", got, want)
	}
	base := newOracle(2, 2)
	enc := base.appendCanon(nil)
	for _, m := range []struct {
		name string
		mut  func(*oracle)
	}{
		{"committed value", func(o *oracle) { o.committed[1] = 7 }},
		{"outstanding write", func(o *oracle) { o.pending[3] = 7 }},
	} {
		o := base.clone()
		m.mut(o)
		if bytes.Equal(o.appendCanon(nil), enc) {
			t.Errorf("a changed %s did not move the canonical encoding", m.name)
		}
	}
}

// TestAbortErasure: the abort-erasure property reports a speculative line
// an abort left behind, and nothing once AbortAll has run. The replayed
// stimulus leaves core 0's L1 holding only an S-S copy of core 1's version,
// the first line the property looks at, so the report must name the copy.
func TestAbortErasure(t *testing.T) {
	cfg := Config{Cores: 2, Addrs: 1, VIDs: 2}
	steps := []Stimulus{
		{Op: OpStore, Core: 1, Addr: addrOf(0), VID: 1, Val: 1},
		{Op: OpLoad, Core: 0, Addr: addrOf(0), VID: 2},
	}
	h, n, err := cfg.ReplayTo(steps, len(steps))
	if err != nil || n != len(steps) {
		t.Fatalf("replay stopped after %d of %d steps: %v", n, len(steps), err)
	}
	copies := h.Versions(0, addrOf(0))
	if len(copies) != 1 || copies[0].St != memsys.SpecShared {
		t.Fatalf("core 0's L1 holds %v, want one S-S copy", copies)
	}
	err = cfg.abortErasure(h)
	want := fmt.Sprintf("cache 0 line %#x still holds %s", addrOf(0), copies[0].String())
	if v, ok := err.(*violation); !ok || v.Property != "abort-erasure" || !strings.Contains(v.Detail, want) {
		t.Errorf("abortErasure = %v, want an abort-erasure violation naming %q", err, want)
	}
	h.AbortAll()
	if err := cfg.abortErasure(h); err != nil {
		t.Errorf("after AbortAll: %v", err)
	}
}
