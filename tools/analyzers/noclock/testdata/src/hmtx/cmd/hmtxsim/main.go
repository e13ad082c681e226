// Command hmtxsim stands in for a CLI that fills in a simulation Config:
// noclock covers hmtx/cmd/ as well as the simulation packages.
package main

import (
	"flag"
	"time"
)

type config struct{ Seed int64 }

func main() {
	seed := flag.Int64("seed", 0, "RNG seed")
	flag.Parse()
	cfg := config{Seed: *seed}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano() // want `time\.Now reads the wall clock`
	}
	_ = cfg
}
