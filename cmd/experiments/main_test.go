package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointBytesPinned pins the hmtx-ckpt/v1 bytes of "experiments"
// checkpoints, bare and with every instrument attached, as cmd/hmtxsim's
// test of the same name pins "run" ones: a change to the checkpoint writer
// shows up here even when its reader changes with it.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		outputs    []string // output-document flags; each takes a file name
		wantSize   int
		wantSHA256 string
	}{
		{"bare", nil, 23672, "fb4d5d6783397e552858f82b4b2e6ff22cc96cbc25defba81684cbf924741bb3"},
		{"instrumented", []string{"-json", "-prof", "-series", "-conflicts", "-hist"},
			2736672, "64236f3f651f87e3ff93d11f8b24802495064e9f0c03cbaf459bd01631816d93"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckptFile := filepath.Join(dir, "ckpt.json")
			args := []string{"-scale", "1", "-q", "-parallel", "1",
				"-ckpt-every", "6", "-ckpt-out", ckptFile, "-ckpt-halt"}
			for i, flag := range tc.outputs {
				args = append(args, flag, filepath.Join(dir, fmt.Sprintf("out%d.json", i)))
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "checkpoint: suite halted after 6 units") {
				t.Fatalf("halted suite output:\n%s", out.String())
			}
			data, err := os.ReadFile(ckptFile)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != tc.wantSize {
				t.Errorf("checkpoint is %d bytes, want %d", len(data), tc.wantSize)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.wantSHA256 {
				t.Errorf("checkpoint SHA-256 %s, want %s", got, tc.wantSHA256)
			}
		})
	}
}
