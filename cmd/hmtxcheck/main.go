// Command hmtxcheck exhaustively model-checks the HMTX coherence protocol
// (internal/check): it enumerates every reachable configuration of a bounded
// memory hierarchy under a nondeterministic stimulus alphabet, asserting the
// MOESI-San invariants and the end-to-end value properties on every edge.
// A property violation is reported with the shortest reproducing stimulus
// trace (DESIGN.md §12).
//
// Usage:
//
//	hmtxcheck [-cores N] [-addrs N] [-vids N] [-store-vals N]
//	          [-wrongpath] [-evict] [-l1ways N] [-l2ways N]
//	          [-max-states N] [-max-depth N] [-inject BUG]
//	          [-json FILE] [-emit-ckpt FILE] [-q]
//
// Exit status: 0 for a clean run, 1 for a property violation, 2 for usage
// errors. Output is deterministic: the same bounds always produce the same
// bytes, so CI can diff reports across runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hmtx/internal/check"
	"hmtx/internal/ckpt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmtxcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg check.Config
	fs.IntVar(&cfg.Cores, "cores", 2, "number of cores/L1 caches")
	fs.IntVar(&cfg.Addrs, "addrs", 1, "number of distinct line addresses")
	fs.IntVar(&cfg.VIDs, "vids", 1, "number of speculative VIDs")
	storeVals := fs.Int("store-vals", 2, "number of distinct store values")
	fs.BoolVar(&cfg.WrongPath, "wrongpath", false, "include squashed wrong-path loads (§5.1)")
	fs.BoolVar(&cfg.Evict, "evict", false, "include forced evictions (§5.4 capacity pressure)")
	fs.IntVar(&cfg.L1Ways, "l1ways", 2, "L1 ways (single set)")
	fs.IntVar(&cfg.L2Ways, "l2ways", 4, "L2 ways (single set)")
	fs.IntVar(&cfg.MaxStates, "max-states", check.DefaultMaxStates, "visited-state cap (truncates the search)")
	fs.IntVar(&cfg.MaxDepth, "max-depth", 0, "BFS depth cap (0 = unbounded)")
	fs.StringVar(&cfg.InjectBug, "inject", "", "re-introduce a fixed protocol bug (memsys.Bug* name) to validate the checker")
	jsonOut := fs.String("json", "", "also write the summary as JSON to this file")
	ckptOut := fs.String("emit-ckpt", "", "on a violation, write the counterexample as an hmtx-ckpt/v1 checkpoint (openable with hmtxdbg) to this file")
	quiet := fs.Bool("q", false, "suppress the text report (exit status still reflects the verdict)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "hmtxcheck: unexpected arguments; bounds are set by flags")
		return 2
	}
	cfg.StoreVals = uint64(*storeVals)

	sum, err := check.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hmtxcheck: %v\n", err)
		return 2
	}
	if !*quiet {
		io.WriteString(stdout, sum.Text())
	}
	if *jsonOut != "" {
		js, jerr := sum.JSON()
		if jerr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", jerr)
			return 2
		}
		js = append(js, '\n')
		if werr := os.WriteFile(*jsonOut, js, 0o644); werr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", werr)
			return 2
		}
	}
	if *ckptOut != "" && sum.Violation != nil {
		if werr := emitCheckpoint(*ckptOut, cfg, sum.Violation); werr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", werr)
			return 2
		}
	}
	if !sum.OK() {
		return 1
	}
	return 0
}

// emitCheckpoint replays the counterexample to its final (violating) state
// and writes it to path as a "check" checkpoint; hmtxdbg re-materialises
// any prefix. The replay must apply every step: the violation belongs to
// the last one, and a replay that stops early, or cannot start, has no
// final state to record.
func emitCheckpoint(path string, cfg check.Config, ce *check.Counterexample) error {
	h, applied, err := cfg.ReplayTo(ce.Steps, len(ce.Steps))
	if h == nil || applied < len(ce.Steps) {
		return fmt.Errorf("replaying the counterexample stopped after %d of %d steps: %v", applied, len(ce.Steps), err)
	}
	doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindCheck, Check: &ckpt.CheckState{
		Config:         cfg,
		Counterexample: ce,
		FinalState:     &ckpt.Blob{Sparse: h.SparseExact()},
	}}
	return ckpt.WriteFile(path, doc)
}
