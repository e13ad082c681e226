package metrics

import (
	"strings"
	"testing"

	"hmtx/internal/obs"
)

// record is a test helper: stamp the clock and record one edge.
func record(r *Recorder, cycle int64, aborter, victim, addr uint64, kind EdgeKind) {
	r.Fold(obs.Event{Kind: obs.KStep, Arg: uint64(cycle)})
	r.Fold(obs.Event{Kind: obs.KConflict, Aux: aborter, VID: victim, Addr: addr, Sub: uint8(kind)})
}

// TestRecorderCascades verifies cascade partitioning: time-chained edges
// connected through shared transactions form one cascade; edges outside the
// window or in disjoint components split apart.
func TestRecorderCascades(t *testing.T) {
	r := NewRecorder(100)
	// Cascade A: tx1 aborts tx2, then tx2 (retrying) aborts tx3 — chained
	// in time and connected through tx2.
	record(r, 10, 1, 2, 0x40, EdgeConflict)
	record(r, 50, 2, 3, 0x80, EdgeConflict)
	// Same time chain, but disjoint transactions: separate cascade.
	record(r, 90, 7, 8, 0xc0, EdgeConflict)
	// Past the window: new chain.
	record(r, 500, 0, 4, 0x40, EdgeSLA)

	g := r.Snapshot("t")
	if g.Nodes != 6 {
		t.Errorf("nodes = %d, want 6", g.Nodes)
	}
	if len(g.Cascades) != 3 {
		t.Fatalf("cascades = %+v, want 3", g.Cascades)
	}
	a := g.Cascades[0]
	if a.Start != 10 || a.End != 50 || a.Edges != 2 {
		t.Errorf("cascade A = %+v", a)
	}
	if len(a.Txs) != 3 || a.Txs[0] != 1 || a.Txs[1] != 2 || a.Txs[2] != 3 {
		t.Errorf("cascade A txs = %v, want [1 2 3]", a.Txs)
	}
	b := g.Cascades[1]
	if b.Edges != 1 || len(b.Txs) != 2 || b.Txs[0] != 7 {
		t.Errorf("cascade B = %+v", b)
	}
	c := g.Cascades[2]
	// Machine-aborted edge: only the victim appears.
	if c.Start != 500 || c.Edges != 1 || len(c.Txs) != 1 || c.Txs[0] != 4 {
		t.Errorf("cascade C = %+v", c)
	}
}

// TestRecorderTopAddrs verifies dominant-address ranking: total descending,
// ties by ascending address, per-kind counts preserved.
func TestRecorderTopAddrs(t *testing.T) {
	r := NewRecorder(0)
	record(r, 1, 1, 2, 0x80, EdgeConflict)
	record(r, 2, 3, 4, 0x80, EdgeConflict)
	record(r, 3, 0, 5, 0x80, EdgeSLA)
	record(r, 4, 1, 6, 0x40, EdgeConflict)
	record(r, 5, 0, 7, 0xc0, EdgeOverflow)

	g := r.Snapshot("t")
	if len(g.TopAddrs) != 3 {
		t.Fatalf("top addrs = %+v", g.TopAddrs)
	}
	top := g.TopAddrs[0]
	if top.Addr != "0x80" || top.Total != 3 || top.Conflicts != 2 || top.SLAs != 1 {
		t.Errorf("top addr = %+v", top)
	}
	// 0x40 and 0xc0 both have total 1: ascending address breaks the tie.
	if g.TopAddrs[1].Addr != "0x40" || g.TopAddrs[2].Addr != "0xc0" {
		t.Errorf("tie order = %q, %q, want 0x40 then 0xc0", g.TopAddrs[1].Addr, g.TopAddrs[2].Addr)
	}
}

// TestGraphDOT verifies the Graphviz rendering: machine box, ascending tx
// nodes, labelled edges.
func TestGraphDOT(t *testing.T) {
	r := NewRecorder(0)
	record(r, 10, 2, 1, 0x40, EdgeConflict)
	record(r, 20, 0, 2, 0x80, EdgeSLA)
	g := r.Snapshot("t")
	dot := g.DOT()
	for _, want := range []string{
		"digraph \"t\" {",
		"machine [label=\"machine\", shape=box];",
		"tx1 [label=\"tx 1\"];",
		"tx2 [label=\"tx 2\"];",
		"tx2 -> tx1 [label=\"0x40 @10 (conflict)\"];",
		"machine -> tx2 [label=\"0x80 @20 (sla-mismatch)\"];",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// tx1 must be declared before tx2 (ascending).
	if strings.Index(dot, "tx1 [label") > strings.Index(dot, "tx2 [label") {
		t.Errorf("tx nodes not ascending:\n%s", dot)
	}
}

// TestGraphText smoke-tests the text summary.
func TestGraphText(t *testing.T) {
	r := NewRecorder(0)
	record(r, 10, 1, 2, 0x40, EdgeConflict)
	g := r.Snapshot("lbl")
	text := g.Text()
	for _, want := range []string{"conflict graph: lbl", "abort cascades", "dominant conflict addresses", "0x40"} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
}

// TestRecorderNilSafe verifies the disabled-instrument contract.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil Recorder reports enabled")
	}
	if r.Edges() != nil {
		t.Fatal("nil Recorder has edges")
	}
}

// TestEdgeKindNames pins the serialised kind names to the obs.AbortClass
// vocabulary.
func TestEdgeKindNames(t *testing.T) {
	want := map[EdgeKind]string{
		EdgeConflict: "conflict",
		EdgeSLA:      "sla-mismatch",
		EdgeOverflow: "overflow",
		EdgeExplicit: "explicit",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}
