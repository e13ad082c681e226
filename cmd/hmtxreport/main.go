// Command hmtxreport renders, compares and folds the simulator's metric
// documents.
//
// Usage:
//
//	hmtxreport [-series SERIES.json] [-conflicts CONFLICTS.json]
//	           [-hist HIST.json] [-prof PROF.json]
//	           [-o report.html] [-title NAME]
//	hmtxreport diff A.json B.json
//	hmtxreport fold PROF.json
//
// The default mode consumes any subset of the four artifact kinds the
// simulator emits — "hmtx-series/v1" time series (hmtxsim -series,
// experiments -series), "hmtx-conflicts/v1" conflict graphs,
// "hmtx-hist/v1" latency histograms, and "hmtx-prof/v1" cycle profiles —
// and renders them as one self-contained HTML file (-o): inline-SVG
// time-series charts (commit throughput, abort rate, speculative occupancy,
// and the validation-vs-commit cycle split that shows the paper's §6 shift
// from software validation to hardware commit), conflict-cascade and
// dominant-address tables, latency percentile tables, and the profiler's
// per-line conflict heatmap. Without -o it prints the documents as plain
// text, each profile with its per-core bucket table, heatmap and
// re-executed transactions. The HTML contains no scripts and no external
// references, and is byte-identical for byte-identical inputs.
//
// The diff subcommand compares two documents of the same schema: per-column
// final deltas (series), edge/cascade deltas (conflicts), percentile deltas
// (hist) or per-bucket cycle and share deltas (prof). Two one-entry
// documents compare directly whatever their labels, which is how the HMTX
// vs SMTX validation/commit trade (§6) reads off two hmtxsim runs;
// otherwise entries pair by label and an unpaired entry is reported. The
// fold subcommand writes a profile's "label;coreN;bucket cycles" folded
// stacks for flamegraph tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hmtx/internal/metrics"
	"hmtx/internal/prof"
)

// newFlagSet returns a flag set that reports errors to stderr instead of
// exiting, keeping run testable.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "diff":
			return runDiff(args[1:], stdout, stderr)
		case "fold":
			return runFold(args[1:], stdout, stderr)
		}
	}
	return runReport(args, stdout, stderr)
}

// fail reports an error under the command's name and returns exit status 1.
func fail(stderr io.Writer, format string, a ...any) int {
	fmt.Fprintf(stderr, "hmtxreport: "+format+"\n", a...)
	return 1
}

// readJSON decodes one JSON document from path into v.
func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkSchema verifies a document's schema tag.
func checkSchema(path, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: schema %q, want %q", path, got, want)
	}
	return nil
}

// readSeries reads an hmtx-series/v1 document. Every renderer indexes a
// column's values by sample, so a column whose length differs from its
// series' cycle count is rejected here rather than panicking there.
func readSeries(path string) (*metrics.SeriesDoc, error) {
	var doc metrics.SeriesDoc
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	if err := checkSchema(path, doc.Schema, metrics.SeriesSchema); err != nil {
		return nil, err
	}
	for _, s := range doc.Series {
		for _, c := range s.Cols {
			if len(c.Values) != len(s.Cycles) {
				return nil, fmt.Errorf("%s: series %q column %q has %d values for %d cycles",
					path, s.Label, c.Name, len(c.Values), len(s.Cycles))
			}
		}
	}
	return &doc, nil
}

// readConflicts reads an hmtx-conflicts/v1 document.
func readConflicts(path string) (*metrics.ConflictDoc, error) {
	var doc metrics.ConflictDoc
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	return &doc, checkSchema(path, doc.Schema, metrics.ConflictSchema)
}

// readHist reads an hmtx-hist/v1 document.
func readHist(path string) (*metrics.HistDoc, error) {
	var doc metrics.HistDoc
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	return &doc, checkSchema(path, doc.Schema, metrics.HistSchema)
}

// readProf reads an hmtx-prof/v1 document; prof.ReadDoc checks its schema
// and that every profile's buckets partition its core cycles.
func readProf(path string) (*prof.Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := prof.ReadDoc(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runFold writes a profile document as folded stacks: hmtxreport fold P.json.
func runFold(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: hmtxreport fold PROF.json")
		return 2
	}
	doc, err := readProf(args[0])
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if err := prof.WriteFolded(stdout, *doc); err != nil {
		return fail(stderr, "%v", err)
	}
	return 0
}

func runReport(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("hmtxreport", stderr)
	seriesPath := fs.String("series", "", "hmtx-series/v1 time-series document")
	conflictsPath := fs.String("conflicts", "", "hmtx-conflicts/v1 conflict-graph document")
	histPath := fs.String("hist", "", "hmtx-hist/v1 latency-histogram document")
	profPath := fs.String("prof", "", "hmtx-prof/v1 cycle-profile document")
	out := fs.String("o", "", "write a self-contained HTML report to this file (default: plain text to stdout)")
	title := fs.String("title", "HMTX simulation report", "report title")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seriesPath == "" && *conflictsPath == "" && *histPath == "" && *profPath == "" {
		fs.Usage()
		return 2
	}

	var rep report
	rep.Title = *title
	if *seriesPath != "" {
		doc, err := readSeries(*seriesPath)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		rep.SeriesDoc = doc
	}
	if *conflictsPath != "" {
		doc, err := readConflicts(*conflictsPath)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		rep.ConflictDoc = doc
	}
	if *histPath != "" {
		doc, err := readHist(*histPath)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		rep.HistDoc = doc
	}
	if *profPath != "" {
		doc, err := readProf(*profPath)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		rep.ProfDoc = doc
	}

	if *out == "" {
		rep.writeText(stdout)
		return 0
	}
	html, err := rep.html()
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return fail(stderr, "%v", err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

// report aggregates every loaded artifact.
type report struct {
	Title       string
	SeriesDoc   *metrics.SeriesDoc
	ConflictDoc *metrics.ConflictDoc
	HistDoc     *metrics.HistDoc
	ProfDoc     *prof.Doc
}

// writeText renders the plain-text report.
func (r *report) writeText(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", r.Title, strings.Repeat("=", len(r.Title)))
	if r.SeriesDoc != nil {
		for i := range r.SeriesDoc.Series {
			fmt.Fprintln(w)
			fmt.Fprint(w, r.SeriesDoc.Series[i].Text())
		}
	}
	if r.ConflictDoc != nil {
		for i := range r.ConflictDoc.Graphs {
			fmt.Fprintln(w)
			fmt.Fprint(w, r.ConflictDoc.Graphs[i].Text())
		}
	}
	if r.HistDoc != nil {
		for i := range r.HistDoc.Histograms {
			fmt.Fprintln(w)
			fmt.Fprint(w, r.HistDoc.Histograms[i].Text())
		}
	}
	if r.ProfDoc != nil {
		for i := range r.ProfDoc.Profiles {
			fmt.Fprintln(w)
			fmt.Fprint(w, r.ProfDoc.Profiles[i].Text())
		}
	}
}
