package clock

import (
	crand "crypto/rand"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"unsafe"
)

// Sources whose value differs from host to host or run to run (v2). Each
// is flagged where it is called, whatever its value flows into.

type config struct {
	QueueCap int
	Note     string
	Seed     int64
}

func queueCap(cfg *config) {
	cfg.QueueCap = 4 * runtime.NumCPU() // want `runtime\.NumCPU depends on the host`
}

func busy() int {
	return runtime.NumGoroutine() // want `runtime\.NumGoroutine depends on the host`
}

func identity() (int, []string) {
	name, _ := os.Hostname() // want `os\.Hostname depends on the host`
	_ = name
	return os.Getpid(), os.Environ() // want `os\.Getpid depends on the host` `os\.Environ depends on the host`
}

func cryptoSeed() int64 {
	n, _ := crand.Int(crand.Reader, big.NewInt(1<<62)) // want `crypto/rand\.Int draws fresh randomness` `crypto/rand\.Reader draws fresh randomness`
	return n.Int64()
}

func pointerText(cfg *config) {
	cfg.Note = fmt.Sprintf("cfg@%p", cfg)       // want `%p in fmt\.Sprintf formats an address`
	_ = fmt.Errorf("at %#p: %v", cfg, cfg.Note) // want `%p in fmt\.Errorf formats an address`
}

func pointerSeed(cfg *config) {
	cfg.Seed = int64(uintptr(unsafe.Pointer(cfg))) // want `uintptr\(unsafe\.Pointer\(\.\.\.\)\) exposes an address`
}

// An escaped percent sign, a plain print function and other conversions to
// uintptr expose no address.
func notPointers(cfg *config, n int) string {
	_ = uintptr(n)
	_ = fmt.Sprint("%p")
	return fmt.Sprintf("100%%p %d", cfg.QueueCap)
}
