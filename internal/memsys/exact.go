package memsys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"hmtx/internal/vid"
)

// This file implements the exact (round-trippable) state encoding behind the
// hmtx-ckpt/v1 checkpoint format (internal/ckpt, DESIGN.md §18). Unlike
// AppendCanonical (snapshot.go), which deliberately quotients by way and core
// permutations, epoch distance and derived bookkeeping so the model checker
// can collapse equivalent states, AppendExact preserves every bit of the
// hierarchy's mutable state: a hierarchy restored with RestoreExact behaves
// byte-identically to the original under any stimulus sequence, including
// statistics, victim selection (absolute LRU stamps), settle-skip generation
// stamps and snoop-filter presence bits.
//
// The encoding is versioned by its magic string and validated against the
// restoring hierarchy's geometry, so a checkpoint taken under one Config can
// never be silently decoded into an incompatible machine.

// exactMagic versions the exact binary encoding. Bump it on any layout
// change; internal/ckpt carries the whole blob opaquely.
const exactMagic = "hmtxmem1"

// AppendExact appends a complete, restorable encoding of the hierarchy's
// mutable state to buf and returns the result. Observers (tracker, tracer,
// profiler, metric instruments, registered histograms) and the MOESI-San
// scratch state are not part of the encoding, exactly as they are not part
// of a Clone: they are re-attached by the restoring caller.
//
// The encoding's length follows from the geometry and the entry counts, so
// buf grows once: from a nil buf AppendExact makes that allocation and one
// for the sorted map keys (TestAppendExactAllocs).
func (h *Hierarchy) AppendExact(buf []byte) []byte {
	buf = slices.Grow(buf, h.exactLen())
	buf = append(buf, exactMagic...)
	for _, g := range h.cfg.geometry() {
		buf = binary.BigEndian.AppendUint64(buf, g)
	}
	buf = append(buf, byte(h.lc))
	buf = binary.BigEndian.AppendUint64(buf, h.epoch)
	buf = binary.BigEndian.AppendUint64(buf, h.gen)
	if h.pendingOverflow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}

	// Statistics, in declaration order. Stats.Add already guarantees every
	// field is a uint64; rely on the same reflective walk so a new counter
	// cannot silently fall out of the checkpoint format.
	sv := reflect.ValueOf(&h.stats).Elem()
	buf = binary.BigEndian.AppendUint64(buf, uint64(sv.NumField()))
	for i := 0; i < sv.NumField(); i++ {
		buf = binary.BigEndian.AppendUint64(buf, sv.Field(i).Uint())
	}

	// Snoop-filter presence masks, sorted by line address. The filter is a
	// conservative superset and carries no architectural data, but it is
	// part of the deterministic replay state: which caches a sweep visits
	// (and therefore which stale bits it clears) depends on it.
	keys := make([]Addr, 0, max(len(h.pres), len(h.mem.lines)))
	for a := range h.pres {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, a := range keys {
		buf = binary.BigEndian.AppendUint64(buf, a)
		m := h.pres[a]
		for wi := 0; wi < presWords; wi++ {
			buf = binary.BigEndian.AppendUint64(buf, m[wi])
		}
	}

	// Main memory, sorted by line address.
	keys = keys[:0]
	for a := range h.mem.lines {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, a := range keys {
		buf = binary.BigEndian.AppendUint64(buf, a)
		data := h.mem.lines[a]
		buf = append(buf, data[:]...)
	}

	// Every cache, L1s in core order then the L2, frame by frame.
	for _, c := range h.allCaches() {
		buf = c.appendExact(buf)
	}
	return buf
}

// lineExactLen is the length of one Line's exact encoding (Line.appendExact).
const lineExactLen = 8 + 3 + 8 + 2 + 8 + 8 + LineSize

// exactLen is the length of the hierarchy's AppendExact encoding.
func (h *Hierarchy) exactLen() int {
	n := len(exactMagic) + 8*len(h.cfg.geometry()) + 1 + 8 + 8 + 1
	n += 8 + 8*reflect.TypeFor[Stats]().NumField()
	n += 8 + len(h.pres)*(8+8*presWords)
	n += 8 + len(h.mem.lines)*(8+LineSize)
	for _, c := range h.allCaches() {
		n += 16 + len(c.sets)*(16+c.ways*lineExactLen)
	}
	return n
}

// geometry returns the configuration parameters that determine the state
// layout. Latencies and feature flags live in the surrounding checkpoint
// document; only layout-affecting parameters gate a restore.
func (c Config) geometry() []uint64 {
	return []uint64{
		uint64(c.Cores),
		uint64(c.L1Size), uint64(c.L1Ways),
		uint64(c.L2Size), uint64(c.L2Ways),
		uint64(c.VIDSpace.Bits),
	}
}

// CheckExact reports whether enc can be the AppendExact encoding of a
// hierarchy built from the valid cfg, without building one: its magic and
// geometry must match cfg, and it must be long enough for every cache's
// sets. A restore that checks first cannot be made to allocate a machine
// larger than its own encoding by a corrupt config.
func CheckExact(cfg Config, enc []byte) error {
	r := &exactReader{buf: enc}
	if err := r.header(cfg.geometry()); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	avail := len(enc)
	for i := 0; i <= cfg.Cores; i++ {
		size, ways := cfg.L1Size, cfg.L1Ways
		if i == cfg.Cores {
			size, ways = cfg.L2Size, cfg.L2Ways
		}
		// Every set encodes as at least its two stamps and its ways.
		if ways > avail/lineExactLen || size/(ways*LineSize) > avail/(16+ways*lineExactLen) {
			return fmt.Errorf("memsys: exact encoding of %d bytes is too short for the machine's caches", len(enc))
		}
		avail -= size / (ways * LineSize) * (16 + ways*lineExactLen)
	}
	return nil
}

// appendExact encodes every set as its ways, in order. The ways a set has
// not used, all of them for a set never allocated, encode as zero Lines,
// exactly the bytes of an all-Invalid set allocated up front, so the
// encoding does not depend on how much of each set is allocated.
func (c *cache) appendExact(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, c.lruClock)
	buf = binary.BigEndian.AppendUint64(buf, c.hits)
	for si, s := range c.sets {
		buf = binary.BigEndian.AppendUint64(buf, c.setGen[si])
		buf = binary.BigEndian.AppendUint64(buf, c.setTag[si])
		for wi := range s {
			buf = s[wi].appendExact(buf)
		}
		// A zero Line encodes as zero bytes (TestZeroLineExact).
		buf = append(buf, make([]byte, (c.ways-len(s))*lineExactLen)...)
	}
	return buf
}

func (l *Line) appendExact(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, l.Tag)
	buf = append(buf, byte(l.St), byte(l.Mod), byte(l.High))
	buf = binary.BigEndian.AppendUint64(buf, l.Epoch)
	buf = append(buf, byte(l.SettledLC), byte(l.ShadowHigh))
	buf = binary.BigEndian.AppendUint64(buf, l.ShadowEpoch)
	buf = binary.BigEndian.AppendUint64(buf, l.lru)
	buf = append(buf, l.Data[:]...)
	return buf
}

// exactReader decodes the fixed-width fields of the exact encoding, turning
// truncation into an error instead of a panic.
type exactReader struct {
	buf []byte
	err error
}

func (r *exactReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("memsys: truncated exact encoding (need %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// header reads the magic and the geometry, which must equal geom. A
// truncated header is left in r.err.
func (r *exactReader) header(geom []uint64) error {
	if magic := r.bytes(len(exactMagic)); r.err != nil || string(magic) != exactMagic {
		return fmt.Errorf("memsys: not an exact state encoding (bad magic)")
	}
	for i, w := range geom {
		if g := r.u64(); r.err == nil && g != w {
			return fmt.Errorf("memsys: checkpoint geometry mismatch (field %d: encoded %d, machine %d)", i, g, w)
		}
	}
	return nil
}

func (r *exactReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *exactReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// RestoreExact overwrites the hierarchy's mutable state with the encoding
// produced by AppendExact. The hierarchy must have been built by New with a
// geometry-compatible Config (same core count, cache sizes/associativities
// and VID width); latencies and feature flags are taken from the receiver's
// own Config. Observers keep whatever the caller attached. On error the
// hierarchy may be partially overwritten and must be discarded.
func (h *Hierarchy) RestoreExact(enc []byte) error {
	r := &exactReader{buf: enc}
	if err := r.header(h.cfg.geometry()); err != nil {
		return err
	}
	h.lc = vid.V(r.u8())
	h.epoch = r.u64()
	h.gen = r.u64()
	h.pendingOverflow = r.u8() != 0

	sv := reflect.ValueOf(&h.stats).Elem()
	if n := r.u64(); r.err == nil && n != uint64(sv.NumField()) {
		return fmt.Errorf("memsys: checkpoint has %d stats fields, machine has %d", n, sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(r.u64())
	}

	var caches presMask // a bit for every cache of this machine
	for i := range h.all {
		caches.set(i)
	}
	h.pres = make(map[Addr]presMask)
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		a := r.u64()
		var m presMask
		for wi := 0; wi < presWords; wi++ {
			m[wi] = r.u64()
			if m[wi]&^caches[wi] != 0 && r.err == nil {
				r.err = fmt.Errorf("memsys: presence mask of %#x names a cache beyond the machine's %d", a, len(h.all))
			}
		}
		h.pres[a] = m
	}

	h.mem = newMemory()
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		a := r.u64()
		var data [LineSize]byte
		copy(data[:], r.bytes(LineSize))
		h.mem.lines[a] = data
	}

	for _, c := range h.allCaches() {
		c.restoreExact(r)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("memsys: %d trailing bytes after exact encoding", len(r.buf))
	}
	// A corrupt line (a state byte out of range, a Tag that is not
	// line-aligned or indexes to another set, overlapping versions) would
	// restore silently and panic deep inside a later access. MOESI-San's
	// invariants hold after every operation of a correct run, so any
	// violation means the encoding is corrupt. Only allocated sets can hold
	// a valid line, so the check costs as much as the sets the run touched.
	if err := h.CheckInvariants(); err != nil {
		var iv *InvariantViolation
		if errors.As(err, &iv) {
			return fmt.Errorf("memsys: corrupt exact encoding: line %#x: %s", iv.Addr, iv.Msg)
		}
		return err
	}
	h.san = sanitizer{}
	return nil
}

// restoreExact decodes the sets appendExact wrote. A set is allocated only
// through its last way that does not encode a zero Line, and left nil when
// there is none. A way that was ever used has an LRU stamp of at least 1, so
// the trailing zero Lines are exactly the ways the set had not used, and the
// restored set scans as few ways as the live one did. Since the encoding maps
// every field to its own bytes, a way is a zero Line exactly when its bytes
// are zero.
func (c *cache) restoreExact(r *exactReader) {
	c.lruClock = r.u64()
	c.hits = r.u64()
	zero := make([]byte, c.ways*lineExactLen)
	for si := range c.sets {
		c.setGen[si] = r.u64()
		c.setTag[si] = r.u64()
		enc := r.bytes(len(zero))
		if r.err != nil {
			return
		}
		n := c.ways
		if bytes.Equal(enc, zero) {
			n = 0
		}
		for n > 0 && bytes.Equal(enc[(n-1)*lineExactLen:n*lineExactLen], zero[:lineExactLen]) {
			n--
		}
		if n == 0 {
			c.sets[si] = nil
			continue
		}
		s := make([]Line, n)
		wr := &exactReader{buf: enc}
		for wi := range s {
			s[wi].restoreExact(wr)
		}
		c.sets[si] = s
	}
}

func (l *Line) restoreExact(r *exactReader) {
	l.Tag = r.u64()
	l.St = State(r.u8())
	l.Mod = vid.V(r.u8())
	l.High = vid.V(r.u8())
	l.Epoch = r.u64()
	l.SettledLC = vid.V(r.u8())
	l.ShadowHigh = vid.V(r.u8())
	l.ShadowEpoch = r.u64()
	l.lru = r.u64()
	copy(l.Data[:], r.bytes(LineSize))
}

// Addrs returns every line address the hierarchy knows about — resident in
// any cache or present in main memory — sorted ascending. It is the address
// universe hmtxdbg enumerates for state dumps and diffs.
func (h *Hierarchy) Addrs() []Addr {
	seen := make(map[Addr]struct{}, len(h.mem.lines))
	for a := range h.mem.lines {
		seen[a] = struct{}{}
	}
	for _, c := range h.allCaches() {
		for si := range c.sets {
			s := c.sets[si]
			for wi := range s {
				if s[wi].St != Invalid {
					seen[s[wi].Tag] = struct{}{}
				}
			}
		}
	}
	out := make([]Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
