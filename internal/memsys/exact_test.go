package memsys

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hmtx/internal/vid"
)

// exactTestCfg builds a deliberately tiny hierarchy so random stimuli evict
// constantly and every state class (speculative versions, lazy commits,
// shadow marks, stale presence bits) shows up in the encoding.
func exactTestCfg(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.L1Size = 4 * LineSize
	cfg.L1Ways = 2
	cfg.L2Size = 16 * LineSize
	cfg.L2Ways = 4
	return cfg
}

// driveRandom applies n random stimuli (loads, stores, wrong-path loads,
// forced evictions, commits) to h, tracking the commit frontier so the
// stimulus stream is legal. Conflicts and overflows are resolved with
// AbortAll, exactly as the engine would.
func driveRandom(h *Hierarchy, rng *rand.Rand, n int, lc *vid.V) {
	cores := h.Config().Cores
	pool := make([]Addr, 16)
	for i := range pool {
		pool[i] = Addr(0x4000 + (i%8)*LineSize + (i/8)*WordSize)
	}
	for op := 0; op < n; op++ {
		core := rng.Intn(cores)
		addr := pool[rng.Intn(len(pool))]
		v := *lc + vid.V(1+rng.Intn(3)) // one of the next few uncommitted VIDs
		var res Result
		switch rng.Intn(10) {
		case 0, 1, 2:
			_, res = h.Load(core, addr, v)
		case 3, 4, 5:
			res = h.Store(core, addr, rng.Uint64(), v)
		case 6:
			_, res = h.WrongPathLoad(core, addr, v)
		case 7:
			_, res = h.Evict(rng.Intn(cores+1), addr)
		case 8:
			_, res = h.Load(core, addr, vid.NonSpec)
		default:
			if *lc < h.Config().VIDSpace.Max()-4 {
				*lc++
				res = h.Commit(*lc)
			}
		}
		if res.Conflict {
			h.AbortAll()
		}
	}
}

// TestExactRoundTrip is the core checkpoint property: after any stimulus
// prefix, AppendExact → RestoreExact reproduces a hierarchy that (1) yields
// the identical exact encoding, (2) has the identical canonical fingerprint,
// and (3) behaves byte-identically — same stats, same canonical encoding,
// same exact encoding — as the original under any shared stimulus suffix.
func TestExactRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := exactTestCfg(2 + rng.Intn(3))
		h := New(cfg)
		lc := vid.V(0)
		driveRandom(h, rng, 40+rng.Intn(80), &lc)

		enc := h.AppendExact(nil)
		h2 := New(cfg)
		if err := h2.RestoreExact(enc); err != nil {
			t.Logf("seed %d: restore: %v", seed, err)
			return false
		}
		if !bytes.Equal(h2.AppendExact(nil), enc) {
			t.Logf("seed %d: re-encoding differs", seed)
			return false
		}
		addrs := h.Addrs()
		if h.Fingerprint(addrs) != h2.Fingerprint(addrs) {
			t.Logf("seed %d: canonical fingerprint differs after restore", seed)
			return false
		}

		// Replay an identical suffix on both and require exact agreement.
		suffix := rng.Int63()
		lc2 := lc
		driveRandom(h, rand.New(rand.NewSource(suffix)), 60, &lc)
		driveRandom(h2, rand.New(rand.NewSource(suffix)), 60, &lc2)
		if h.stats != h2.stats {
			t.Logf("seed %d: stats diverged after replay:\n%+v\n%+v", seed, h.stats, h2.stats)
			return false
		}
		if !bytes.Equal(h.AppendExact(nil), h2.AppendExact(nil)) {
			t.Logf("seed %d: exact state diverged after replay", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestExactRestoreIntoObservedHierarchy checks that a restore composes with
// attached observers: the restored hierarchy keeps the caller's tracker slot
// and MOESI-San finds no fault with the restored state.
func TestExactRestoreSanitized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := exactTestCfg(4)
	h := New(cfg)
	lc := vid.V(0)
	driveRandom(h, rng, 120, &lc)
	enc := h.AppendExact(nil)

	cfg2 := cfg
	cfg2.Sanitize = true
	h2 := New(cfg2)
	if err := h2.RestoreExact(enc); err != nil {
		t.Fatal(err)
	}
	if err := h2.CheckInvariants(); err != nil {
		t.Fatalf("restored state violates MOESI-San invariants: %v", err)
	}
}

func TestExactRestoreErrors(t *testing.T) {
	h := New(exactTestCfg(2))
	enc := h.AppendExact(nil)

	if err := New(exactTestCfg(2)).RestoreExact(enc[:len(enc)-3]); err == nil {
		t.Error("truncated encoding: want error")
	}
	if err := New(exactTestCfg(2)).RestoreExact(append([]byte(nil), append(enc, 0)...)); err == nil {
		t.Error("trailing bytes: want error")
	}
	if err := New(exactTestCfg(3)).RestoreExact(enc); err == nil {
		t.Error("core-count mismatch: want geometry error")
	}
	small := exactTestCfg(2)
	small.L1Size = 2 * LineSize
	if err := New(small).RestoreExact(enc); err == nil {
		t.Error("L1 geometry mismatch: want geometry error")
	}
	if err := New(exactTestCfg(2)).RestoreExact([]byte("not a checkpoint")); err == nil {
		t.Error("bad magic: want error")
	}

	// Corrupt line state and presence masks decode without a format error
	// but must still be rejected: each of these panicked inside a later
	// access instead.
	base := buildSnapState(t)
	la := LineAddr(addrA)
	corrupt := []struct {
		name string
		mut  func(h *Hierarchy, s []Line, wi int)
		want string
	}{
		{"state byte above SpecShared", func(h *Hierarchy, s []Line, wi int) {
			s[wi].St = SpecShared + 1
		}, "state out of range"},
		{"tag not line-aligned", func(h *Hierarchy, s []Line, wi int) {
			s[wi].Tag += WordSize
		}, "not line-aligned"},
		{"tag indexes to another set", func(h *Hierarchy, s []Line, wi int) {
			s[wi].Tag += LineSize
		}, "belongs in set"},
		{"two latest versions", func(h *Hierarchy, s []Line, wi int) {
			for i := range s {
				if s[i].St.Speculative() && s[i].St.superseded() && s[i].Tag == la {
					s[i].St = SpecModified
					return
				}
			}
			t.Fatal("snapshot state has no superseded version of addrA in L1.1")
		}, "overlap"},
		{"presence bit beyond the last cache", func(h *Hierarchy, s []Line, wi int) {
			m := h.pres[la]
			m.set(len(h.all))
			h.pres[la] = m
		}, "presence mask"},
	}
	for _, tc := range corrupt {
		h := base.Clone()
		c := h.l1s[1]
		s := c.sets[c.setIndex(la)]
		wi := -1
		for i := range s {
			if s[i].St == SpecModified && s[i].Tag == la {
				wi = i
			}
		}
		if wi < 0 {
			t.Fatal("snapshot state has no S-M version of addrA in L1.1")
		}
		tc.mut(h, s, wi)
		err := New(h.Config()).RestoreExact(h.AppendExact(nil))
		if err == nil {
			t.Errorf("%s: want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExactRestoreByteCorruption flips each byte of an encoding in turn.
// Every corrupted encoding must either fail to restore or restore into a
// machine that random stimuli drive without a panic.
func TestExactRestoreByteCorruption(t *testing.T) {
	cfg := exactTestCfg(2)
	h := New(cfg)
	lc := vid.V(0)
	driveRandom(h, rand.New(rand.NewSource(3)), 120, &lc)
	enc := h.AppendExact(nil)
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		h2 := New(cfg)
		if h2.RestoreExact(bad) != nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d of %d flipped: restored, then panicked: %v", i, len(enc), r)
				}
			}()
			lc2 := h2.lc
			driveRandom(h2, rand.New(rand.NewSource(int64(i))), 200, &lc2)
		}()
	}
}

// TestVersionsReadOnly: the read-only readers, Versions and PeekWord,
// settle copies, not the resident lines, so calling one on one of two
// identical hierarchies leaves their exact encodings equal. A commit leaves
// lazy commits pending and the settle-skip stamps stale, the state in which
// an in-place settle shows: Settle, which does settle in place, must change
// the encoding.
func TestVersionsReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(h *Hierarchy, addr Addr)
	}{
		{"Versions", func(h *Hierarchy, addr Addr) {
			for ci := range h.all {
				h.Versions(ci, addr)
			}
		}},
		{"PeekWord", func(h *Hierarchy, addr Addr) { h.PeekWord(addr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := buildSnapState(t), buildSnapState(t)
			a.Commit(1)
			b.Commit(1)
			for _, addr := range snapAddrs {
				tc.read(a, addr)
			}
			if !bytes.Equal(a.AppendExact(nil), b.AppendExact(nil)) {
				t.Fatalf("%s changed the exact encoding", tc.name)
			}
			for _, addr := range snapAddrs {
				a.Settle(addr)
			}
			if bytes.Equal(a.AppendExact(nil), b.AppendExact(nil)) {
				t.Fatal("Settle left the encoding as it was: no stale line to read")
			}
		})
	}
}

// TestZeroLineExact: appendExact writes a never-allocated set as zero bytes,
// which is only its ways zero Lines' encoding while a zero Line encodes as
// lineExactLen zero bytes.
func TestZeroLineExact(t *testing.T) {
	enc := new(Line).appendExact(nil)
	if len(enc) != lineExactLen {
		t.Fatalf("a Line encodes as %d bytes, lineExactLen is %d", len(enc), lineExactLen)
	}
	if !bytes.Equal(enc, make([]byte, lineExactLen)) {
		t.Errorf("the zero Line encodes as %x, want zero bytes", enc)
	}
}

// TestCheckExact: CheckExact accepts an encoding for the configuration that
// produced it, and rejects a bad magic, a geometry mismatch, a truncated
// header, and a header whose geometry matches a bigger machine than the
// encoding can hold — before any such machine is built.
func TestCheckExact(t *testing.T) {
	cfg := exactTestCfg(2)
	h := New(cfg)
	var lc vid.V
	driveRandom(h, rand.New(rand.NewSource(3)), 200, &lc)
	enc := h.AppendExact(nil)
	if err := CheckExact(cfg, SparseOf(enc)); err != nil {
		t.Fatalf("own encoding rejected: %v", err)
	}
	big := cfg
	big.L2Size = 1 << 30
	inflated := append([]byte(nil), enc...)
	binary.BigEndian.PutUint64(inflated[len(exactMagic)+8*3:], uint64(big.L2Size)) // geometry field 3

	for _, tc := range []struct {
		name string
		cfg  Config
		enc  []byte
		want string
	}{
		{"bad magic", cfg, append([]byte("hmtxmem0"), enc[len(exactMagic):]...), "magic"},
		{"geometry mismatch", big, enc, "geometry"},
		{"truncated header", cfg, enc[:len(exactMagic)+20], "truncated"},
		{"too short for the caches", big, inflated, "too short"},
	} {
		if err := CheckExact(tc.cfg, SparseOf(tc.enc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
