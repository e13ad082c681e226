package prof_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

func TestBucketNames(t *testing.T) {
	names := prof.BucketNames()
	if len(names) != int(prof.NumBuckets) {
		t.Fatalf("BucketNames returned %d names for %d buckets", len(names), prof.NumBuckets)
	}
	seen := map[string]bool{}
	for i, b := range prof.Buckets() {
		n := b.String()
		if n != names[i] {
			t.Errorf("bucket %d: String %q != BucketNames[%d] %q", i, n, i, names[i])
		}
		if seen[n] {
			t.Errorf("duplicate bucket name %q", n)
		}
		seen[n] = true
		if strings.ContainsAny(n, " ;") {
			t.Errorf("bucket name %q not folded-stack safe", n)
		}
	}
	if got := prof.Bucket(200).String(); got != "bucket(200)" {
		t.Errorf("out-of-range bucket String = %q", got)
	}
}

func TestNilCollectorDisabled(t *testing.T) {
	var c *prof.Collector
	if c.Enabled() {
		t.Fatal("nil collector reports Enabled")
	}
}

// TestFoldingAndInvariant drives the collector by hand through an aborted run
// followed by a clean one and checks the fold: charges for uncommitted
// sequence numbers land in the wasted bucket, the per-VID record and the
// heatmap's wasted column; everything else keeps its provisional bucket. The
// snapshot must satisfy the partition invariant.
func TestFoldingAndInvariant(t *testing.T) {
	c := prof.New()
	if !c.Enabled() {
		t.Fatal("fresh collector not enabled")
	}

	// Run 1: core 0 commits seq 1 then works on seq 2; core 1 works on
	// seq 2 too. The run aborts with lastCommitted = 1.
	c.Fold(obs.Event{Kind: obs.KCharge, VID: 1, Sub: uint8(prof.Compute), Arg: 10})
	c.Fold(obs.Event{Kind: obs.KCharge, VID: 1, Sub: uint8(prof.Commit), Arg: 5})
	c.Fold(obs.Event{Kind: obs.KAccess, VID: 2, Sub: uint8(prof.Mem), Arg: 40, Addr: 0x1000})
	c.Fold(obs.Event{Kind: obs.KConflict, Addr: 0x1000})
	c.Fold(obs.Event{Kind: obs.KCharge, Core: 1, VID: 2, Sub: uint8(prof.CommitStall), Arg: 7})
	c.Fold(obs.Event{Kind: obs.KAccess, Core: 1, Sub: uint8(prof.L1), Arg: 3, Addr: 0x2000})
	c.Fold(obs.Event{Kind: obs.KCharge, Core: 1, Sub: uint8(prof.Abort), Arg: 2})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Arg: 55})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Core: 1, Arg: 12})
	c.Fold(obs.Event{Kind: obs.KRunEnd, Arg: 55, Note: "aborted", Aux: 1})

	// Run 2: seq 2 re-executes and the run completes.
	c.Fold(obs.Event{Kind: obs.KCharge, VID: 2, Sub: uint8(prof.Compute), Arg: 20})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Arg: 20})
	c.Fold(obs.Event{Kind: obs.KRunEnd, Arg: 20, Aux: 2})

	p := c.Snapshot("wl", "hmtx", "DOALL", 0)
	if err := p.CheckInvariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
	if p.Runs != 2 || p.AbortedRuns != 1 {
		t.Errorf("runs = %d/%d aborted, want 2/1", p.Runs, p.AbortedRuns)
	}
	if p.TotalCycles != 75 || p.CoreCycles != 87 {
		t.Errorf("total/core cycles = %d/%d, want 75/87", p.TotalCycles, p.CoreCycles)
	}
	want := map[string]int64{
		"compute": 30, "commit": 5, "mem": 0, "wasted": 47,
		"l1": 3, "abort": 2, "commit_stall": 0,
	}
	for name, v := range want {
		if got := p.Buckets[name]; got != v {
			t.Errorf("bucket %s = %d, want %d", name, got, v)
		}
	}

	if len(p.ReexecutedTxs) != 1 {
		t.Fatalf("reexecuted txs = %+v, want one record", p.ReexecutedTxs)
	}
	tx := p.ReexecutedTxs[0]
	if tx.VID != 2 || tx.AbortedAttempts != 1 || tx.WastedCycles != 47 {
		t.Errorf("tx record = %+v, want vid 2, 1 attempt, 47 wasted", tx)
	}

	if len(p.HotLines) != 1 {
		t.Fatalf("hot lines = %+v, want only the conflicted line", p.HotLines)
	}
	l := p.HotLines[0]
	if l.Addr != "0x1000" || l.Conflicts != 1 || l.WastedCycles != 40 || l.AccessCycles != 0 {
		t.Errorf("hot line = %+v, want 0x1000 with 1 conflict, 40 wasted, 0 access", l)
	}
}

func TestCoreDonePanicsOnGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a core_done fold did not panic on an attribution gap")
		}
	}()
	c := prof.New()
	c.Fold(obs.Event{Kind: obs.KCharge, Sub: uint8(prof.Compute), Arg: 5})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Arg: 6})
}

func TestChargePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a charge fold did not panic on negative cycles")
		}
	}()
	neg := int64(-1)
	prof.New().Fold(obs.Event{Kind: obs.KCharge, Sub: uint8(prof.Compute), Arg: uint64(neg)})
}

func sampleDoc() prof.Doc {
	c := prof.New()
	c.Fold(obs.Event{Kind: obs.KCharge, VID: 1, Sub: uint8(prof.Compute), Arg: 10})
	c.Fold(obs.Event{Kind: obs.KAccess, Core: 1, VID: 1, Sub: uint8(prof.Peer), Arg: 8, Addr: 0xabc0})
	c.Fold(obs.Event{Kind: obs.KPeer, Addr: 0xabc0})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Arg: 10})
	c.Fold(obs.Event{Kind: obs.KCoreDone, Core: 1, Arg: 8})
	c.Fold(obs.Event{Kind: obs.KRunEnd, Arg: 10, Aux: 1})
	return prof.Doc{
		Schema:   prof.Schema,
		Scale:    1,
		Cores:    2,
		Profiles: []prof.Profile{c.Snapshot("wl", "hmtx", "DSWP", 0)},
	}
}

func TestDocRoundTripAndDeterminism(t *testing.T) {
	a, err := json.Marshal(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical collections serialized differently")
	}
	doc, err := prof.ReadDoc(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Profiles) != 1 || doc.Profiles[0].Label != "wl/hmtx" {
		t.Fatalf("round trip lost data: %+v", doc)
	}

	bad := strings.NewReader(`{"schema":"hmtx-prof/v999","profiles":[]}`)
	if _, err := prof.ReadDoc(bad); err == nil {
		t.Fatal("ReadDoc accepted a wrong schema tag")
	}
	trailing := strings.NewReader(string(b) + `{"schema":"garbage"`)
	if _, err := prof.ReadDoc(trailing); err == nil {
		t.Fatal("ReadDoc accepted data after the document")
	}

	// A bucket that no longer sums to its core's cycles breaks the
	// partition every consumer relies on.
	tampered := sampleDoc()
	tampered.Profiles[0].Cores[1].Buckets["peer"]++
	buf, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.ReadDoc(bytes.NewReader(buf)); err == nil || !strings.Contains(err.Error(), "core 1") {
		t.Fatalf("ReadDoc of a tampered bucket: err %v, want a core 1 invariant error", err)
	}
}

func TestWriteFolded(t *testing.T) {
	var buf bytes.Buffer
	if err := prof.WriteFolded(&buf, sampleDoc()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "wl/hmtx;core0;compute 10\nwl/hmtx;core1;peer 8\n"
	if got != want {
		t.Errorf("folded output:\n%q\nwant:\n%q", got, want)
	}
}

func TestTextAndDiff(t *testing.T) {
	doc := sampleDoc()
	txt := doc.Profiles[0].Text()
	for _, frag := range []string{"wl/hmtx", "compute", "peer", "contention heatmap", "0xabc0"} {
		if !strings.Contains(txt, frag) {
			t.Errorf("Text() missing %q:\n%s", frag, txt)
		}
	}

	other := sampleDoc().Profiles[0]
	other.Label = "wl/smtx"
	other.Buckets["validation"] = 100
	other.Buckets["compute"] = 12
	other.CoreCycles += 102
	d := prof.DiffText(&doc.Profiles[0], &other)
	for _, frag := range []string{"wl/hmtx -> wl/smtx", "validation", "+100", "+2"} {
		if !strings.Contains(d, frag) {
			t.Errorf("DiffText missing %q:\n%s", frag, d)
		}
	}
}

// TestHeatmapTieOrder pins the heatmap's secondary sort key: lines with
// identical conflict, wasted-cycle and peer-transfer counts order by numeric
// address, ascending. The insertion order here is deliberately descending and
// includes 0x900 vs 0x1000, which lexical comparison of the formatted hex
// strings would invert ("0x900" > "0x1000").
func TestHeatmapTieOrder(t *testing.T) {
	c := prof.New()
	for _, a := range []uint64{0x1000, 0x900, 0x2000, 0x40} {
		c.Fold(obs.Event{Kind: obs.KConflict, Addr: a})
	}
	c.Fold(obs.Event{Kind: obs.KConflict, Addr: 0x2000}) // hotter: must sort first despite mid-range address
	p := c.Snapshot("wl", "hmtx", "DOALL", 0)
	want := []string{"0x2000", "0x40", "0x900", "0x1000"}
	if len(p.HotLines) != len(want) {
		t.Fatalf("got %d hot lines, want %d", len(p.HotLines), len(want))
	}
	for i, w := range want {
		if p.HotLines[i].Addr != w {
			t.Errorf("hot_lines[%d] = %s, want %s", i, p.HotLines[i].Addr, w)
		}
	}
}
