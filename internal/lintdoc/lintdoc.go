// Package lintdoc defines the versioned JSON document hmtxlint emits with
// -json, in the same style as the metrics document schemas
// ("hmtx-series/v1", ...), so hmtxreport diff can treat lint output like any
// other versioned artifact.
package lintdoc

// Schema is the document identifier carried in the "schema" field.
const Schema = "hmtx-lint/v1"

// Doc is one lint run: which analyzer revisions ran, and what they found.
type Doc struct {
	Schema    string     `json:"schema"`
	Analyzers []Analyzer `json:"analyzers"`
	Findings  []Finding  `json:"findings"`
}

// Analyzer names one rule and its revision. A version bump marks a change in
// what the rule means, so a diff can tell rule drift from code drift.
type Analyzer struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// A Finding is one diagnostic in the stable external format. File paths are
// relative to the working directory when possible so documents from
// checkouts at different absolute paths compare. Findings are sorted by
// file, line, column, analyzer, message.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}
