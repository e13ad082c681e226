package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hmtx/internal/check"
	"hmtx/internal/memsys"
)

func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, _ := runMain(t, "-cores", "2", "-addrs", "1", "-vids", "1")
	if code != 0 {
		t.Fatalf("exit=%d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "result: ok") || !strings.Contains(out, "exhausted=true") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

func TestInjectedBugExitsOne(t *testing.T) {
	code, out, _ := runMain(t, "-vids", "1", "-inject", "stale-sscopy-on-convert")
	if code != 1 {
		t.Fatalf("exit=%d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "counterexample") {
		t.Fatalf("missing counterexample in report:\n%s", out)
	}
}

func TestQuietAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sum.json")
	code, out, _ := runMain(t, "-q", "-json", path)
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	if out != "" {
		t.Fatalf("-q still wrote output: %q", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		States    int  `json:"states"`
		Exhausted bool `json:"exhausted"`
	}
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if sum.States == 0 || !sum.Exhausted {
		t.Fatalf("implausible JSON summary: %+v", sum)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runMain(t, "-cores", "99"); code != 2 {
		t.Fatal("invalid bounds must exit 2")
	}
	if code, _, _ := runMain(t, "-inject", "no-such-bug"); code != 2 {
		t.Fatal("unknown -inject must exit 2")
	}
	if code, _, _ := runMain(t, "stray-arg"); code != 2 {
		t.Fatal("positional arguments must exit 2")
	}
}

// TestCheckpointBytesPinned pins the hmtx-ckpt/v1 bytes of a "check"
// checkpoint, as cmd/hmtxsim's test of the same name pins "run" ones: a
// change to the checkpoint writer shows up here even when its reader changes
// with it.
func TestCheckpointBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ce.json")
	if code, _, errs := runMain(t, "-vids", "1", "-inject", "stale-sscopy-on-convert", "-q", "-emit-ckpt", path); code != 1 {
		t.Fatalf("exit=%d, want 1\n%s", code, errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "d082de381071328ea9df6929deff144c12c183c753a284913440e7368dd8d795"
	if len(data) != 3858 {
		t.Errorf("checkpoint is %d bytes, want 3858", len(data))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("checkpoint SHA-256 %s, want %s", got, want)
	}
}

// TestEmitCheckpointNeedsFullReplay: -emit-ckpt records the hierarchy after
// the counterexample's last step, so a replay that cannot start (an invalid
// config) or that stops before the last step is an error and writes no
// checkpoint.
func TestEmitCheckpointNeedsFullReplay(t *testing.T) {
	cfg := check.Config{Cores: 2, Addrs: 1, VIDs: 1, StoreVals: 2, InjectBug: memsys.BugStaleCopyOnConvert}
	sum, err := check.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce := sum.Violation
	if ce == nil {
		t.Fatal("injected bug not found by the checker")
	}
	twice := *ce
	twice.Steps = append(slices.Clone(ce.Steps), ce.Steps...)
	for _, tc := range []struct {
		name string
		cfg  check.Config
		ce   *check.Counterexample
	}{
		{"invalid config", check.Config{Cores: 99}, ce},
		{"violation before the last step", cfg, &twice},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ce.json")
			if err := emitCheckpoint(path, tc.cfg, tc.ce); err == nil {
				t.Error("emitCheckpoint succeeded")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("a checkpoint was written (stat: %v)", err)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "ce.json")
	if err := emitCheckpoint(path, cfg, ce); err != nil {
		t.Fatalf("the checker's own counterexample: %v", err)
	}
}
