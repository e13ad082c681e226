package main

import (
	"fmt"
	"io"
	"strings"

	"hmtx/internal/ckpt"
	"hmtx/internal/metrics"
	"hmtx/internal/prof"
	"hmtx/internal/stats"
)

// runDiff compares two metric documents of the same schema:
// hmtxreport diff A.json B.json.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("hmtxreport diff", stderr)
	if err := fs.Parse(args); err != nil {
		return 2
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
		return fail(stderr, "%v", err)
	}
	if err := readJSON(pb, &sb); err != nil {
		return fail(stderr, "%v", err)
	}
	if sa.Schema != sb.Schema {
		return fail(stderr, "schema mismatch: %s is %q, %s is %q", pa, sa.Schema, pb, sb.Schema)
	}

	var err error
	switch sa.Schema {
	case metrics.SeriesSchema:
		err = diffDocs(stdout, readSeries, pa, pb, diffSeries)
	case metrics.ConflictSchema:
		err = diffDocs(stdout, readConflicts, pa, pb, diffConflicts)
	case metrics.HistSchema:
		err = diffDocs(stdout, readHist, pa, pb, diffHists)
	case prof.Schema:
		err = diffDocs(stdout, readProf, pa, pb, diffProfs)
	case ckpt.Schema:
		// Checkpoints are simulation state, not metrics: two checkpoints of
		// the same configuration differ in machine state, which hmtxdbg can
		// diff cycle against cycle (EXPERIMENTS.md "Debugging an abort
		// storm"). Point there instead of pretending a metric diff applies.
		return fail(stderr, "%s is an %s checkpoint, not a metric document; open it with hmtxdbg (its diff command compares machine state across cycles)", pa, ckpt.Schema)
	case "hmtx-bench/v1":
		// cmd/experiments -json writes indented, deterministic bytes, so a
		// byte diff is the exact comparison (EXPERIMENTS.md).
		return fail(stderr, "%s is an hmtx-bench/v1 document, which is deterministic; compare it with cmp or diff -u", pa)
	default:
		return fail(stderr, "unsupported schema %q (want series, conflicts, hist or prof)", sa.Schema)
	}
	if err != nil {
		return fail(stderr, "%v", err)
	}
	return 0
}

// diffDocs reads both documents with read and writes diff's comparison of
// them.
func diffDocs[D any](w io.Writer, read func(string) (D, error), pa, pb string, diff func(io.Writer, D, D)) error {
	a, err := read(pa)
	if err != nil {
		return err
	}
	b, err := read(pb)
	if err != nil {
		return err
	}
	diff(w, a, b)
	return nil
}

// pairs matches A's entries with B's for a diff. Two one-entry documents
// pair directly whatever their labels: one run against another, such as
// hmtxsim -system hmtx against -system smtx-max. Otherwise entries pair by
// label in A's order, followed by B's unmatched entries in B's order; an
// entry on one side only has nil on the other. Input order fixes the output
// order, so the diff is deterministic.
func pairs[T any](a, b []T, label func(*T) string) [][2]*T {
	if len(a) == 1 && len(b) == 1 {
		return [][2]*T{{&a[0], &b[0]}}
	}
	bIdx := make(map[string]int, len(b))
	for j := range b {
		if _, dup := bIdx[label(&b[j])]; !dup {
			bIdx[label(&b[j])] = j
		}
	}
	used := make([]bool, len(b))
	var out [][2]*T
	for i := range a {
		p := [2]*T{&a[i], nil}
		if j, ok := bIdx[label(&a[i])]; ok && !used[j] {
			p[1], used[j] = &b[j], true
		}
		out = append(out, p)
	}
	for j := range b {
		if !used[j] {
			out = append(out, [2]*T{nil, &b[j]})
		}
	}
	return out
}

// diffBlocks renders one text block per pair: diff's comparison of a matched
// pair, or a line naming the side an unmatched entry is on.
func diffBlocks[T any](a, b []T, label func(*T) string, diff func(x, y *T) string) []string {
	var out []string
	for _, p := range pairs(a, b, label) {
		switch {
		case p[1] == nil:
			out = append(out, label(p[0])+": only in A\n")
		case p[0] == nil:
			out = append(out, label(p[1])+": only in B\n")
		default:
			out = append(out, diff(p[0], p[1]))
		}
	}
	return out
}

// pairLabel names a matched pair: its label, or both when they differ.
func pairLabel(a, b string) string {
	if a == b {
		return a
	}
	return a + " -> " + b
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
// pair of series.
func diffSeries(w io.Writer, a, b *metrics.SeriesDoc) {
	fmt.Fprintf(w, "series diff: A has %d series, B has %d\n", len(a.Series), len(b.Series))
	label := func(s *metrics.Series) string { return s.Label }
	for _, blk := range diffBlocks(a.Series, b.Series, label, func(sa, sb *metrics.Series) string {
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
		return fmt.Sprintf("%s (A: %d samples, B: %d samples)\n",
			pairLabel(sa.Label, sb.Label), len(sa.Cycles), len(sb.Cycles)) + t.String()
	}) {
		fmt.Fprint(w, "\n"+blk)
	}
}

// diffConflicts compares edge, cascade and node counts per pair of graphs.
func diffConflicts(w io.Writer, a, b *metrics.ConflictDoc) {
	fmt.Fprintf(w, "conflict diff: A has %d graphs, B has %d\n\n", len(a.Graphs), len(b.Graphs))
	var t stats.Table
	t.Add("label", "A edges", "B edges", "A cascades", "B cascades", "A txs", "B txs")
	for _, p := range pairs(a.Graphs, b.Graphs, func(g *metrics.Graph) string { return g.Label }) {
		ga, gb := p[0], p[1]
		var label string
		switch {
		case gb == nil:
			label = ga.Label
		case ga == nil:
			label = gb.Label
		default:
			label = pairLabel(ga.Label, gb.Label)
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

// diffHists compares the percentiles of every histogram of every pair of
// sets.
func diffHists(w io.Writer, a, b *metrics.HistDoc) {
	fmt.Fprintf(w, "latency diff: A has %d sets, B has %d\n", len(a.Histograms), len(b.Histograms))
	label := func(h *metrics.LabeledHists) string { return h.Label }
	for _, blk := range diffBlocks(a.Histograms, b.Histograms, label, func(ha, hb *metrics.LabeledHists) string {
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
		return pairLabel(ha.Label, hb.Label) + "\n" + t.String()
	}) {
		fmt.Fprint(w, "\n"+blk)
	}
}

// diffProfs prints prof.DiffText's per-bucket cycle and share deltas for
// every pair of profiles, a blank line between pairs.
func diffProfs(w io.Writer, a, b *prof.Doc) {
	label := func(p *prof.Profile) string { return p.Label }
	fmt.Fprint(w, strings.Join(diffBlocks(a.Profiles, b.Profiles, label, prof.DiffText), "\n"))
}
