package main

import (
	"fmt"
	"io"

	"hmtx/internal/ckpt"
	"hmtx/internal/metrics"
	"hmtx/internal/prof"
	"hmtx/internal/stats"
)

// runDiff compares two metric documents of the same schema, pairing entries
// by label: hmtxreport diff A.json B.json.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("hmtxreport diff", stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmtxreport: "+format+"\n", a...)
		return 1
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: hmtxreport diff A.json B.json")
		return 2
	}
	pa, pb := fs.Arg(0), fs.Arg(1)

	var sa, sb struct {
		Schema string `json:"schema"`
	}
	if err := readJSON(pa, &sa); err != nil {
		return fail("%v", err)
	}
	if err := readJSON(pb, &sb); err != nil {
		return fail("%v", err)
	}
	if sa.Schema != sb.Schema {
		return fail("schema mismatch: %s is %q, %s is %q", pa, sa.Schema, pb, sb.Schema)
	}

	switch sa.Schema {
	case metrics.SeriesSchema:
		a, err := readSeries(pa)
		if err != nil {
			return fail("%v", err)
		}
		b, err := readSeries(pb)
		if err != nil {
			return fail("%v", err)
		}
		diffSeries(stdout, a, b)
	case metrics.ConflictSchema:
		var a, b metrics.ConflictDoc
		if err := readJSON(pa, &a); err != nil {
			return fail("%v", err)
		}
		if err := readJSON(pb, &b); err != nil {
			return fail("%v", err)
		}
		diffConflicts(stdout, &a, &b)
	case metrics.HistSchema:
		var a, b metrics.HistDoc
		if err := readJSON(pa, &a); err != nil {
			return fail("%v", err)
		}
		if err := readJSON(pb, &b); err != nil {
			return fail("%v", err)
		}
		diffHists(stdout, &a, &b)
	case ckpt.Schema:
		// Checkpoints are simulation state, not metrics: two checkpoints of
		// the same configuration differ in machine state, which hmtxdbg can
		// diff cycle against cycle (EXPERIMENTS.md "Debugging an abort
		// storm"). Point there instead of pretending a metric diff applies.
		return fail("%s is an %s checkpoint, not a metric document; open it with hmtxdbg (its diff command compares machine state across cycles)", pa, ckpt.Schema)
	case prof.Schema:
		return fail("%s is an %s profile; diff it with hmtxprof diff (per-bucket deltas, old vs new)", pa, prof.Schema)
	case "hmtx-bench/v1":
		// cmd/experiments -json writes indented, deterministic bytes, so a
		// byte diff is the exact comparison (EXPERIMENTS.md).
		return fail("%s is an hmtx-bench/v1 document, which is deterministic; compare it with cmp or diff -u", pa)
	default:
		return fail("unsupported schema %q (want series, conflicts or hist)", sa.Schema)
	}
	return 0
}

// pairs walks A's entries in order, pairing each with B's same-labelled entry
// when present; B-only entries follow in B's order. Label order is input
// order, so the diff is deterministic.
func pairs(aLabels, bLabels []string) [][2]int {
	bIdx := make(map[string]int, len(bLabels))
	for i, l := range bLabels {
		bIdx[l] = i
	}
	seen := make(map[string]bool, len(aLabels))
	var out [][2]int
	for i, l := range aLabels {
		j, ok := bIdx[l]
		if !ok {
			j = -1
		}
		seen[l] = true
		out = append(out, [2]int{i, j})
	}
	for j, l := range bLabels {
		if !seen[l] {
			out = append(out, [2]int{-1, j})
		}
	}
	return out
}

// ratio renders b/a, guarding the empty sides.
func ratio(a, b float64) string {
	if a == 0 {
		if b == 0 {
			return "-"
		}
		return "new"
	}
	return fmt.Sprintf("%.2fx", b/a)
}

// diffSeries compares the final cumulative value of every column of every
// same-labelled series.
func diffSeries(w io.Writer, a, b *metrics.SeriesDoc) {
	la := make([]string, len(a.Series))
	for i := range a.Series {
		la[i] = a.Series[i].Label
	}
	lb := make([]string, len(b.Series))
	for i := range b.Series {
		lb[i] = b.Series[i].Label
	}
	fmt.Fprintf(w, "series diff: A has %d series, B has %d\n", len(a.Series), len(b.Series))
	for _, p := range pairs(la, lb) {
		switch {
		case p[1] < 0:
			fmt.Fprintf(w, "\n%s: only in A\n", a.Series[p[0]].Label)
		case p[0] < 0:
			fmt.Fprintf(w, "\n%s: only in B\n", b.Series[p[1]].Label)
		default:
			sa, sb := &a.Series[p[0]], &b.Series[p[1]]
			fmt.Fprintf(w, "\n%s (A: %d samples, B: %d samples)\n", sa.Label, len(sa.Cycles), len(sb.Cycles))
			var t stats.Table
			t.Add("column", "A final", "B final", "B/A")
			for _, c := range sa.Cols {
				var fa, fb uint64
				if len(c.Values) > 0 {
					fa = c.Values[len(c.Values)-1]
				}
				if bv := sb.Col(c.Name); len(bv) > 0 {
					fb = bv[len(bv)-1]
				}
				t.AddF(c.Name, fa, fb, ratio(float64(fa), float64(fb)))
			}
			fmt.Fprint(w, t.String())
		}
	}
}

// diffConflicts compares edge, cascade and node counts per labelled graph.
func diffConflicts(w io.Writer, a, b *metrics.ConflictDoc) {
	la := make([]string, len(a.Graphs))
	for i := range a.Graphs {
		la[i] = a.Graphs[i].Label
	}
	lb := make([]string, len(b.Graphs))
	for i := range b.Graphs {
		lb[i] = b.Graphs[i].Label
	}
	fmt.Fprintf(w, "conflict diff: A has %d graphs, B has %d\n\n", len(a.Graphs), len(b.Graphs))
	var t stats.Table
	t.Add("label", "A edges", "B edges", "A cascades", "B cascades", "A txs", "B txs")
	for _, p := range pairs(la, lb) {
		var ga, gb *metrics.Graph
		label := ""
		if p[0] >= 0 {
			ga = &a.Graphs[p[0]]
			label = ga.Label
		}
		if p[1] >= 0 {
			gb = &b.Graphs[p[1]]
			label = gb.Label
		}
		cell := func(g *metrics.Graph, f func(*metrics.Graph) int) string {
			if g == nil {
				return "-"
			}
			return fmt.Sprint(f(g))
		}
		edges := func(g *metrics.Graph) int { return len(g.Edges) }
		cascades := func(g *metrics.Graph) int { return len(g.Cascades) }
		nodes := func(g *metrics.Graph) int { return g.Nodes }
		t.AddF(label, cell(ga, edges), cell(gb, edges), cell(ga, cascades), cell(gb, cascades),
			cell(ga, nodes), cell(gb, nodes))
	}
	fmt.Fprint(w, t.String())
}

// diffHists compares the percentiles of every histogram of every
// same-labelled set.
func diffHists(w io.Writer, a, b *metrics.HistDoc) {
	la := make([]string, len(a.Histograms))
	for i := range a.Histograms {
		la[i] = a.Histograms[i].Label
	}
	lb := make([]string, len(b.Histograms))
	for i := range b.Histograms {
		lb[i] = b.Histograms[i].Label
	}
	fmt.Fprintf(w, "latency diff: A has %d sets, B has %d\n", len(a.Histograms), len(b.Histograms))
	for _, p := range pairs(la, lb) {
		switch {
		case p[1] < 0:
			fmt.Fprintf(w, "\n%s: only in A\n", a.Histograms[p[0]].Label)
		case p[0] < 0:
			fmt.Fprintf(w, "\n%s: only in B\n", b.Histograms[p[1]].Label)
		default:
			ha, hb := &a.Histograms[p[0]], &b.Histograms[p[1]]
			fmt.Fprintf(w, "\n%s\n", ha.Label)
			byName := make(map[string]*metrics.HistSnapshot, len(hb.Hists))
			for i := range hb.Hists {
				byName[hb.Hists[i].Name] = &hb.Hists[i]
			}
			var t stats.Table
			t.Add("histogram", "A count", "B count", "A p50", "B p50", "A p95", "B p95", "A p99", "B p99", "p50 B/A")
			for i := range ha.Hists {
				x := &ha.Hists[i]
				y := byName[x.Name]
				if y == nil {
					t.AddF(x.Name, x.Total, "-", x.P50, "-", x.P95, "-", x.P99, "-", "-")
					continue
				}
				t.AddF(x.Name, x.Total, y.Total, x.P50, y.P50, x.P95, y.P95, x.P99, y.P99,
					ratio(float64(x.P50), float64(y.P50)))
			}
			fmt.Fprint(w, t.String())
		}
	}
}
