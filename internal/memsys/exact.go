package memsys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"

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
	w := SparseWriter{buf: slices.Grow(buf, h.exactLen()), dense: true}
	h.writeExact(&w)
	return w.buf
}

// SparseExact returns the AppendExact encoding in sparse form: the ways a
// set has not used, and the sets never allocated, are gaps, so it costs as
// much as the lines the run placed.
func (h *Hierarchy) SparseExact() Sparse {
	var w SparseWriter
	h.writeExact(&w)
	return w.Sparse()
}

// writeExact writes the exact encoding to w.
func (h *Hierarchy) writeExact(w *SparseWriter) {
	w.Write([]byte(exactMagic))
	for _, g := range h.cfg.geometry() {
		w.u64(g)
	}
	overflow := byte(0)
	if h.pendingOverflow {
		overflow = 1
	}
	w.Write([]byte{byte(h.lc)})
	w.u64(h.epoch)
	w.u64(h.gen)
	w.Write([]byte{overflow})

	// Statistics, in declaration order. Stats.Add already guarantees every
	// field is a uint64; rely on the same reflective walk so a new counter
	// cannot silently fall out of the checkpoint format.
	sv := reflect.ValueOf(&h.stats).Elem()
	w.u64(uint64(sv.NumField()))
	for i := 0; i < sv.NumField(); i++ {
		w.u64(sv.Field(i).Uint())
	}

	// Snoop-filter presence masks, sorted by line address. The filter is a
	// conservative superset and carries no architectural data, but it is
	// part of the deterministic replay state: which caches a sweep visits
	// (and therefore which stale bits it clears) depends on it.
	keys := make([]Addr, 0, max(len(h.pres), len(h.mem.chunks)))
	for a := range h.pres {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	w.u64(uint64(len(keys)))
	for _, a := range keys {
		w.u64(a)
		m := h.pres[a]
		for wi := 0; wi < presWords; wi++ {
			w.u64(m[wi])
		}
	}

	// Main memory: every present line, sorted by line address.
	w.u64(uint64(h.mem.lines))
	h.mem.eachLine(keys, func(a Addr, data *[LineSize]byte) {
		w.u64(a)
		w.Write(data[:])
	})

	// Every cache, L1s in core order then the L2, frame by frame.
	for _, c := range h.allCaches() {
		c.writeExact(w)
	}
}

// lineExactLen is the length of one Line's exact encoding (Line.appendExact).
const lineExactLen = 8 + 3 + 8 + 2 + 8 + 8 + LineSize

// exactLen is the length of the hierarchy's AppendExact encoding.
func (h *Hierarchy) exactLen() int {
	n := len(exactMagic) + 8*len(h.cfg.geometry()) + 1 + 8 + 8 + 1
	n += 8 + 8*reflect.TypeFor[Stats]().NumField()
	n += 8 + len(h.pres)*(8+8*presWords)
	n += 8 + h.mem.lines*(8+LineSize)
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

// CheckExact reports whether s can be the exact encoding of a hierarchy
// built from the valid cfg, without building one: s must be well formed,
// its magic and geometry must match cfg, and its length must be exactly
// what its entry counts and cfg's caches take. A restore that checks first
// cannot be made to allocate a machine larger than its own encoding by a
// corrupt config, nor to read a length its caches do not account for.
func CheckExact(cfg Config, s Sparse) error {
	if err := s.check(); err != nil {
		return err
	}
	r := &exactReader{s: s}
	if err := r.header(cfg.geometry()); err != nil {
		return err
	}
	r.skip(1, 1+8+8+1)             // LC VID, epoch, generation, overflow flag
	r.skip(r.u64(), 8)             // statistics
	r.skip(r.u64(), 8+8*presWords) // presence masks
	r.skip(r.u64(), 8+LineSize)    // main memory
	if r.err != nil {
		return r.err
	}
	avail := s.Len - r.pos
	for i := 0; i <= cfg.Cores; i++ {
		size, ways := cfg.L1Size, cfg.L1Ways
		if i == cfg.Cores {
			size, ways = cfg.L2Size, cfg.L2Ways
		}
		// The cache's two counters, then each set's two stamps and ways.
		sets, setLen := size/(ways*LineSize), 16+ways*lineExactLen
		if ways > avail/lineExactLen || sets > (avail-16)/setLen {
			return fmt.Errorf("memsys: exact encoding of %d bytes is too short for the machine's caches", s.Len)
		}
		avail -= 16 + sets*setLen
	}
	if avail != 0 {
		return fmt.Errorf("memsys: exact encoding of %d bytes is %d bytes too long for the machine", s.Len, avail)
	}
	return nil
}

// writeExact encodes every set as its two stamps and its ways, in order. The
// ways a set has not used, all of them for a set never allocated, encode as
// zero Lines, exactly the bytes of an all-Invalid set allocated up front, so
// the encoding does not depend on how much of each set is allocated. They go
// to w as zero bytes, and so do the stamps of a set never scanned.
func (c *cache) writeExact(w *SparseWriter) {
	w.u64(c.lruClock)
	w.u64(c.hits)
	for si, s := range c.sets {
		if len(s) == 0 && c.setGen[si] == 0 && c.setTag[si] == 0 {
			w.Zeros(16 + c.ways*lineExactLen)
			continue
		}
		w.u64(c.setGen[si])
		w.u64(c.setTag[si])
		for wi := range s {
			w.line(&s[wi])
		}
		// A zero Line encodes as zero bytes (TestZeroLineExact).
		w.Zeros((c.ways - len(s)) * lineExactLen)
	}
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

// RestoreExact overwrites the hierarchy's mutable state with the encoding
// produced by AppendExact: RestoreSparse of its one-stretch form.
func (h *Hierarchy) RestoreExact(enc []byte) error {
	return h.RestoreSparse(SparseOf(enc))
}

// RestoreSparse overwrites the hierarchy's mutable state with the exact
// encoding s. The hierarchy must have been built by New with a
// geometry-compatible Config (same core count, cache sizes/associativities
// and VID width); latencies and feature flags are taken from the receiver's
// own Config. Observers keep whatever the caller attached. On error the
// hierarchy may be partially overwritten and must be discarded.
func (h *Hierarchy) RestoreSparse(s Sparse) error {
	if err := s.check(); err != nil {
		return err
	}
	r := &exactReader{s: s}
	if err := r.header(h.cfg.geometry()); err != nil {
		return err
	}
	h.lc = vid.V(r.u8())
	h.epoch = r.u64()
	h.gen = r.u64()
	h.pendingOverflow = r.u8() != 0
	if h.lc > h.cfg.VIDSpace.Max() && r.err == nil {
		return fmt.Errorf("memsys: committed VID %d is beyond the machine's VID space (%d)", h.lc, h.cfg.VIDSpace.Max())
	}

	sv := reflect.ValueOf(&h.stats).Elem()
	if n := r.u64(); r.err == nil && n != uint64(sv.NumField()) {
		return fmt.Errorf("memsys: checkpoint has %d stats fields, machine has %d", n, sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(r.u64())
	}

	// Both maps were written in ascending address order. Requiring it keeps
	// a corrupt count from filling a map out of a gap, whose entries would
	// all read as address 0.
	var caches presMask // a bit for every cache of this machine
	for i := range h.all {
		caches.set(i)
	}
	h.pres = make(map[Addr]presMask)
	for n, i := r.u64(), uint64(0); i < n && r.err == nil; i++ {
		a := r.u64()
		r.ascending(i, a)
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
	for n, i := r.u64(), uint64(0); i < n && r.err == nil; i++ {
		a := r.u64()
		r.ascending(i, a)
		copy(h.mem.line(a)[:], r.bytes(LineSize))
	}

	for _, c := range h.allCaches() {
		c.restoreExact(r)
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != s.Len {
		return fmt.Errorf("memsys: %d trailing bytes after exact encoding", s.Len-r.pos)
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

// ascending records an error unless a, the address of map entry i, is above
// the one before it.
func (r *exactReader) ascending(i uint64, a Addr) {
	if i > 0 && a <= r.last && r.err == nil {
		r.err = fmt.Errorf("memsys: exact encoding lists address %#x after %#x", a, r.last)
	}
	r.last = a
}

// zeroLine is the exact encoding of a zero Line.
var zeroLine [lineExactLen]byte

// restoreExact decodes the sets writeExact wrote. A set whose ways lie in a
// gap is left nil without a look at them. Any other set is allocated only
// through its last way that does not encode a zero Line, and left nil when
// there is none. A way that was ever used has an LRU stamp of at least 1, so
// the trailing zero Lines are exactly the ways the set had not used, and the
// restored set scans as few ways as the live one did. Since the encoding maps
// every field to its own bytes, a way is a zero Line exactly when its bytes
// are zero.
func (c *cache) restoreExact(r *exactReader) {
	c.lruClock = r.u64()
	c.hits = r.u64()
	setLen := c.ways * lineExactLen
	for si := range c.sets {
		c.setGen[si] = r.u64()
		c.setTag[si] = r.u64()
		c.sets[si] = nil
		if r.skipGap(setLen) {
			continue
		}
		enc := r.bytes(setLen)
		if r.err != nil {
			return
		}
		n := c.ways
		for n > 0 && bytes.Equal(enc[(n-1)*lineExactLen:n*lineExactLen], zeroLine[:]) {
			n--
		}
		if n == 0 {
			continue
		}
		s := make([]Line, n)
		for wi := range s {
			s[wi].restoreExact(enc[wi*lineExactLen:])
		}
		c.sets[si] = s
	}
}

// restoreExact decodes the lineExactLen bytes appendExact wrote at the
// start of b.
func (l *Line) restoreExact(b []byte) {
	l.Tag = binary.BigEndian.Uint64(b)
	l.St, l.Mod, l.High = State(b[8]), vid.V(b[9]), vid.V(b[10])
	l.Epoch = binary.BigEndian.Uint64(b[11:])
	l.SettledLC, l.ShadowHigh = vid.V(b[19]), vid.V(b[20])
	l.ShadowEpoch = binary.BigEndian.Uint64(b[21:])
	l.lru = binary.BigEndian.Uint64(b[29:])
	copy(l.Data[:], b[37:lineExactLen])
}

// Addrs returns every line address the hierarchy knows about — resident in
// any cache or present in main memory — sorted ascending. It is the address
// universe hmtxdbg enumerates for state dumps and diffs.
func (h *Hierarchy) Addrs() []Addr {
	out := make([]Addr, 0, h.mem.lines)
	h.mem.eachLine(nil, func(a Addr, _ *[LineSize]byte) { out = append(out, a) })
	for _, c := range h.allCaches() {
		for si := range c.sets {
			s := c.sets[si]
			for wi := range s {
				if s[wi].St != Invalid {
					out = append(out, s[wi].Tag)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
