//go:build !race

package ckpt

// raceEnabled mirrors the -race build tag for tests; see race_enabled_test.go.
const raceEnabled = false
