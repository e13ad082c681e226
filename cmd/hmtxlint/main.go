// Command hmtxlint runs the hmtx determinism analyzers over Go packages.
//
// Usage:
//
//	hmtxlint [-json] [packages]
//
// With no arguments it checks ./... . It exits non-zero if any analyzer
// reports a finding, printing one file:line:col line per finding (or, with
// -json, an "hmtx-lint/v1" document: schema header, the analyzer names and
// versions that ran, and the sorted findings — a versioned artifact
// hmtxreport diff understands like the metric documents).
//
// The rules (see tools/analyzers/*) enforce the determinism contract from
// DESIGN.md: no dependence on map iteration or select order (detrange), no
// wall clock, ambient randomness, host identity or pointer address
// (noclock), no cache-line protocol mutation outside internal/memsys
// (statemut), and no unguarded trace emit, profiler charge or
// metric-instrument record on the simulator fast path (fastpath). Each rule
// judges one package at a time and flags a source where it is called.
// DESIGN.md §14.3 records the planted bugs each rule was audited against.
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
	"hmtx/tools/analyzers/detrange"
	"hmtx/tools/analyzers/fastpath"
	"hmtx/tools/analyzers/noclock"
	"hmtx/tools/analyzers/statemut"
)

var analyzers = []*analysis.Analyzer{
	detrange.Analyzer,
	fastpath.Analyzer,
	noclock.Analyzer,
	statemut.Analyzer,
}

// Finding is the stable external format, shared with hmtxreport through
// internal/lintdoc.
type Finding = lintdoc.Finding

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmtxlint: ")
	jsonOut := flag.Bool("json", false, "emit findings as a sorted JSON array on stdout")
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
	var findings []Finding
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue // loaded only so its importers type-check
		}
		for _, a := range analyzers {
			diags, err := analysis.Run(pkg, a)
			if err != nil {
				log.Fatal(err)
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
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "hmtxlint: %d finding(s)\n", len(findings))
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
