package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hmtx/internal/check"
	"hmtx/internal/ckpt"
	"hmtx/internal/engine"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/workloads"
)

// makeRunCkpt produces a mid-run checkpoint of 052.alvinn, the same way
// hmtxsim -ckpt-every 10 -ckpt-halt does.
func makeRunCkpt(t *testing.T) string {
	t.Helper()
	spec, err := workloads.ByName("052.alvinn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Mem.Cores = 4
	sys := engine.New(cfg)
	loop := spec.New(1)
	loop.Setup(sys.Mem)
	var doc *ckpt.Doc
	hmtx.RunOpts(sys, loop, spec.Paradigm, 4, hmtx.Options{
		Every: 10,
		Checkpoint: func(nextIt int, sofar hmtx.Outcome) bool {
			doc = ckpt.CaptureRun(sys, ckpt.RunState{
				Bench: spec.Name, System: "hmtx", Paradigm: spec.Paradigm.String(),
				Cores: 4, Scale: 1, Every: 10, EngineCfg: cfg,
				NextIt: nextIt, Partial: sofar,
			})
			return true
		},
	})
	if doc == nil {
		t.Fatal("no checkpoint boundary reached")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := ckpt.WriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

func drive(t *testing.T, path, cmds string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-c", cmds, path}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("hmtxdbg exit %d, stderr: %s", code, errb.String())
	}
	return out.String()
}

func TestDebugRunCheckpoint(t *testing.T) {
	path := makeRunCkpt(t)
	out := drive(t, path, "info; step event; step tx; core 0; line 0x1000000")
	for _, want := range []string{
		"run checkpoint: 052.alvinn",
		"position: checkpoint boundary",
		"position: cycle",
		"tx 11", // first event after a 10-iteration segment is begin tx 11
		"line 0x1000000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// baseCycle reads the checkpoint's boundary cycle, so the tests do not
// hard-code simulated timing.
func baseCycle(t *testing.T, path string) int64 {
	t.Helper()
	doc, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Run.Engine.CumCycles
}

func TestDebugSeekDeterministic(t *testing.T) {
	path := makeRunCkpt(t)
	cmds := fmt.Sprintf("seek %d; line 0x1000000; dump", baseCycle(t, path)+130)
	a := drive(t, path, cmds)
	b := drive(t, path, cmds)
	if a != b {
		t.Errorf("seek is not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestDebugWatchAndDiff(t *testing.T) {
	path := makeRunCkpt(t)
	base := baseCycle(t, path)
	out := drive(t, path, fmt.Sprintf("watch version 0x1000000; continue; diff %d %d", base, base+130))
	if !strings.Contains(out, "speculative versions") {
		t.Errorf("version watch did not report a hit:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("lines differ between %d and %d", base, base+130)) {
		t.Errorf("diff summary missing:\n%s", out)
	}
}

// TestDebugCheckCheckpoint drives the acceptance path: open an -emit-ckpt
// counterexample, seek to the failing step, and read the offending line's
// MOESI state and version chain.
func TestDebugCheckCheckpoint(t *testing.T) {
	cfg := check.Config{Cores: 2, Addrs: 1, VIDs: 1, StoreVals: 2,
		InjectBug: memsys.BugStaleCopyOnConvert}
	sum, err := check.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violation == nil {
		t.Fatal("injected bug not found by the checker")
	}
	doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindCheck, Check: &ckpt.CheckState{
		Config: cfg, Counterexample: sum.Violation,
	}}
	path := filepath.Join(t.TempDir(), "ce.json")
	if err := ckpt.WriteFile(path, doc); err != nil {
		t.Fatal(err)
	}

	out := drive(t, path, fmt.Sprintf("trace; seek %d; line 0x0", len(sum.Violation.Steps)))
	for _, want := range []string{
		"counterexample:",
		"position: step",
		"line 0x0:",
		"version chain:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A speculative version prints its VIDs twice, in its state S-M(mod,high)
	// and as (modVID mod, highVID high); the two must agree.
	vers := regexp.MustCompile(`\((\d+),(\d+)\).*\(modVID (\d+), highVID (\d+)\)`).FindAllStringSubmatch(out, -1)
	if len(vers) == 0 {
		t.Errorf("no speculative version printed:\n%s", out)
	}
	for _, m := range vers {
		if m[1] != m[3] || m[2] != m[4] {
			t.Errorf("version (%s,%s) printed as modVID %s, highVID %s", m[1], m[2], m[3], m[4])
		}
	}
}

// TestDebugCheckFinalState: a check checkpoint's recorded final state must
// match what replaying its trace gives; a mismatch means the checkpoint came
// from a different memory system, and hmtxdbg refuses to open it.
func TestDebugCheckFinalState(t *testing.T) {
	cfg := check.Config{Cores: 2, Addrs: 1, VIDs: 1, StoreVals: 2,
		InjectBug: memsys.BugStaleCopyOnConvert}
	sum, err := check.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce := sum.Violation
	if ce == nil {
		t.Fatal("injected bug not found by the checker")
	}
	h, _, _ := cfg.ReplayTo(ce.Steps, len(ce.Steps))
	final := h.AppendExact(nil)
	other := slices.Clone(final)
	other[len(other)-1] ^= 1 // the last byte of the L2's last line
	for _, tc := range []struct {
		name   string
		final  []byte
		wantOK bool
	}{
		{"replayed state", final, true},
		{"different state", other, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindCheck, Check: &ckpt.CheckState{
				Config: cfg, Counterexample: ce, FinalState: &ckpt.Blob{Sparse: memsys.SparseOf(tc.final)},
			}}
			path := filepath.Join(t.TempDir(), "ce.json")
			if err := ckpt.WriteFile(path, doc); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			code := run([]string{"-c", "info", path}, strings.NewReader(""), &out, &errb)
			if ok := code == 0; ok != tc.wantOK {
				t.Fatalf("exit %d, want success %v; stderr: %s", code, tc.wantOK, errb.String())
			}
			if !tc.wantOK && !strings.Contains(errb.String(), "final state") {
				t.Errorf("error does not name the final state: %s", errb.String())
			}
		})
	}
}

func TestDebugRejectsExperimentsCheckpoint(t *testing.T) {
	doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindExperiments,
		Experiments: &ckpt.ExperimentsState{}}
	path := filepath.Join(t.TempDir(), "suite.json")
	if err := ckpt.WriteFile(path, doc); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, strings.NewReader(""), &out, &errb); code == 0 {
		t.Fatal("experiments checkpoint accepted")
	}
	if !strings.Contains(errb.String(), "cmd/experiments -resume") {
		t.Errorf("error does not point at cmd/experiments: %s", errb.String())
	}
}

// TestLineSigStates: the signature that watchpoints and diffs compare names
// every resident version with its state, S-S copies included.
func TestLineSigStates(t *testing.T) {
	cfg := memsys.DefaultConfig()
	cfg.Cores = 2
	h := memsys.New(cfg)
	const la = memsys.Addr(0x1000)
	h.Store(1, la, 11, 1) // S-M version 1 in l1[1]
	h.Load(0, la, 1)      // its S-S copy in l1[0]
	d := &dbg{doc: &ckpt.Doc{Kind: ckpt.KindCheck, Check: &ckpt.CheckState{Config: check.Config{Cores: 2}}}}
	sig, specVersions := d.lineSig(h, la)
	if want := "l1[0]:S-S(1,2) l1[1]:S-O(0,1) l1[1]:S-M(1,1)"; sig != want || specVersions != 3 {
		t.Errorf("signature %q with %d speculative versions, want %q with 3", sig, specVersions, want)
	}
}
