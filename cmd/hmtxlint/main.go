// Command hmtxlint runs the hmtx determinism analyzers over Go packages.
//
// Usage:
//
//	hmtxlint [packages]
//
// With no arguments it checks ./... . It prints one sorted
// file:line:col line per finding and exits non-zero if there is any.
//
// The rules (see tools/analyzers/*) enforce the determinism contract from
// DESIGN.md: no dependence on map iteration or select order (detrange), no
// wall clock, ambient randomness, host identity or pointer address
// (noclock), and no instrument-hook emit outside its Enabled guard on the
// simulator fast path (fastpath). Each rule
// judges one package at a time and flags a source where it is called.
// DESIGN.md §14.3 records the planted bugs each rule was audited against.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/detrange"
	"hmtx/tools/analyzers/fastpath"
	"hmtx/tools/analyzers/noclock"
)

var analyzers = []*analysis.Analyzer{
	detrange.Analyzer,
	fastpath.Analyzer,
	noclock.Analyzer,
}

// A Finding is one diagnostic in the printed format. File paths are
// relative to the working directory when possible.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmtxlint: ")
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
		for _, a := range analyzers {
			for _, d := range analysis.Run(pkg, a) {
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

	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
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
