// Command hmtxlint runs the hmtx determinism analyzers over Go packages.
//
// Usage:
//
//	hmtxlint [-json] [-baseline file] [packages]
//
// With no arguments it checks ./... . It exits non-zero if any analyzer
// reports a finding, printing one file:line:col line per finding (or, with
// -json, an "hmtx-lint/v1" document: schema header, the analyzer names and
// versions that ran, and the sorted findings — a versioned artifact
// hmtxreport diff understands like the metric documents). With -baseline,
// findings recorded in the given hmtx-lint/v1 document (an earlier -json
// run) are tolerated: only new findings fail the run, so a gate can be
// introduced before every pre-existing finding is paid down.
//
// The rules (see tools/analyzers/*) enforce the determinism contract from
// DESIGN.md: no map-iteration-order dependence (detrange), no wall-clock or
// ambient randomness (noclock), no cache-line protocol mutation outside
// internal/memsys (statemut), no unguarded trace emit, profiler charge or
// metric-instrument record on the simulator fast path (fastpath),
// statically allocation-free //hmtx:hotpath functions (hotalloc),
// model-checker snapshot methods covering every field of the structs they
// fingerprint (statefp), and the whole-program rules: interprocedural
// nondeterminism taint into simulation-visible state (detflow) and
// path-sensitive MTX lifecycle checking with Env-escape detection (txpath).
//
// Packages are analyzed in dependency order with a shared fact store, so
// the interprocedural analyzers see the summaries of every dependency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"hmtx/internal/lintdoc"
	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/detflow"
	"hmtx/tools/analyzers/detrange"
	"hmtx/tools/analyzers/fastpath"
	"hmtx/tools/analyzers/hotalloc"
	"hmtx/tools/analyzers/noclock"
	"hmtx/tools/analyzers/statefp"
	"hmtx/tools/analyzers/statemut"
	"hmtx/tools/analyzers/txpath"
)

var analyzers = []*analysis.Analyzer{
	detflow.Analyzer,
	detrange.Analyzer,
	fastpath.Analyzer,
	hotalloc.Analyzer,
	noclock.Analyzer,
	statefp.Analyzer,
	statemut.Analyzer,
	txpath.Analyzer,
}

// Finding is the stable external format, shared with hmtxreport through
// internal/lintdoc.
type Finding = lintdoc.Finding

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmtxlint: ")
	jsonOut := flag.Bool("json", false, "emit findings as a sorted JSON array on stdout")
	baselinePath := flag.String("baseline", "", "JSON findings file (from a -json run); only findings not in it fail the run")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		log.Fatal(err)
	}

	cwd, _ := os.Getwd()
	runner := analysis.NewRunner()
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, err := runner.Run(pkg, a)
			if err != nil {
				log.Fatal(err)
			}
			if pkg.DepOnly {
				continue // analyzed for the facts its importers need
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					File:     relPath(cwd, pos.Filename),
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
		}
	}
	sortFindings(findings)

	fresh := findings
	if *baselinePath != "" {
		baseline, err := readBaseline(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		fresh = diffBaseline(findings, baseline)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(lintDoc(findings)); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, f := range fresh {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "hmtxlint: %d finding(s)", len(fresh))
		if *baselinePath != "" {
			fmt.Fprintf(os.Stderr, " not in baseline %s", *baselinePath)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

// relPath makes name relative to base when that yields a path inside it;
// otherwise the absolute path is kept.
func relPath(base, name string) string {
	if base == "" {
		return name
	}
	rel, err := filepath.Rel(base, name)
	if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator) {
		return name
	}
	return filepath.ToSlash(rel)
}

// sortFindings orders findings for stable output: by file, line, column,
// analyzer, message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// lintDoc wraps sorted findings in the versioned document: schema header and
// the analyzer roster (name + rule version, sorted by name — the analyzers
// slice is kept sorted).
func lintDoc(findings []Finding) *lintdoc.Doc {
	doc := &lintdoc.Doc{Schema: lintdoc.Schema, Findings: findings}
	for _, a := range analyzers {
		v := a.Version
		if v == "" {
			v = "1"
		}
		doc.Analyzers = append(doc.Analyzers, lintdoc.Analyzer{Name: a.Name, Version: v})
	}
	return doc
}

// readBaseline reads the findings of an hmtx-lint/v1 document.
func readBaseline(path string) ([]Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc lintdoc.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	if doc.Schema != lintdoc.Schema {
		return nil, fmt.Errorf("baseline %s: unsupported schema %q (want %q)", path, doc.Schema, lintdoc.Schema)
	}
	return doc.Findings, nil
}

// diffBaseline returns the findings not accounted for by the baseline.
// Matching ignores line and column — code above a finding moves it without
// changing what it is — and is multiset-aware: two identical findings need
// two baseline entries.
func diffBaseline(findings, baseline []Finding) []Finding {
	seen := make(map[Finding]int, len(baseline))
	for _, f := range baseline {
		f.Line, f.Col = 0, 0
		seen[f]++
	}
	var fresh []Finding
	for _, f := range findings {
		key := f
		key.Line, key.Col = 0, 0
		if seen[key] > 0 {
			seen[key]--
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh
}
