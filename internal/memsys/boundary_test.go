package memsys

import (
	"testing"

	"hmtx/internal/vid"
)

// TestConfigCoreCap pins the configuration boundary: 255 cores is the largest
// legal system (presence bits for 255 L1s plus the L2 fit the presMask); 256
// must panic.
func TestConfigCoreCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 255
	h := New(cfg)
	if got := len(h.all); got != 256 {
		t.Fatalf("255-core hierarchy has %d caches, want 256 (255 L1s + L2)", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Cores=256 did not panic")
		}
	}()
	cfg.Cores = 256
	New(cfg)
}

// TestPresMaskBoundaryBits exercises the presence bitset at every word
// boundary and at the highest id a 255-core system uses (the L2's bit, 255).
func TestPresMaskBoundaryBits(t *testing.T) {
	var m presMask
	if !m.empty() {
		t.Fatal("zero mask not empty")
	}
	for _, bit := range []int{0, 63, 64, 127, 128, 254, 255} {
		if m.has(bit) {
			t.Fatalf("bit %d set in fresh mask", bit)
		}
		m.set(bit)
		if !m.has(bit) {
			t.Fatalf("bit %d clear after set", bit)
		}
	}
	if m.empty() {
		t.Fatal("mask with bits set reports empty")
	}
	// Clearing one boundary bit must not disturb its neighbours across the
	// word seam.
	m.clear(64)
	if m.has(64) || !m.has(63) || !m.has(127) {
		t.Fatalf("clear(64) disturbed neighbours: %v", m)
	}
	for _, bit := range []int{0, 63, 127, 128, 254, 255} {
		m.clear(bit)
	}
	if !m.empty() {
		t.Fatalf("mask not empty after clearing all bits: %v", m)
	}
}

// TestSnoopTransferAtCoreCap moves a line between high-id cores of a maximal
// 255-core hierarchy: core 254's presence bit lives in the mask's fourth
// word, and the snoop filter must route a transfer to and from it.
func TestSnoopTransferAtCoreCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 255
	h := New(cfg)
	last := cfg.Cores - 1

	h.PokeWord(addrA, 7)
	if v := mustLoad(t, h, last, addrA, vid.NonSpec); v != 7 {
		t.Fatalf("core %d load: got %d, want 7", last, v)
	}
	if !h.pres[LineAddr(addrA)].has(last) {
		t.Fatalf("presence bit %d clear after core %d loaded the line", last, last)
	}

	// A speculative store on core 200 takes the line; a later speculative
	// load on core 254 must snoop the new version back.
	const addrB = Addr(0x2000)
	mustStore(t, h, 200, addrB, 9, 1)
	if v := mustLoad(t, h, last, addrB, 2); v != 9 {
		t.Fatalf("snoop transfer load: got %d, want 9", v)
	}
	if m := h.pres[LineAddr(addrB)]; !m.has(200) || !m.has(last) {
		t.Fatalf("presence after transfer: %v, want bits 200 and %d", m, last)
	}
	h.Commit(1)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
