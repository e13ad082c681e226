//go:build race

package ckpt

// raceEnabled mirrors the -race build tag for tests. The race runtime
// instruments memory accesses with shadow allocations that the allocation
// statistics cannot tell from real ones, so allocation bounds only hold in
// non-race runs; the race job still executes everything else.
const raceEnabled = true
