package memsys

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Sparse is an exact encoding (AppendExact) held as its length and its
// stretches: every byte outside a stretch is zero. Nearly all of a Table 2
// machine's encoding is zero, the ways of the L2 sets a run never touched,
// and in this form those bytes cost nothing to capture, write, read or
// restore (DESIGN.md §18.1). SparseExact captures it, RestoreSparse restores
// from it, and RestoreExact is its one-stretch case.
type Sparse struct {
	Len       int       // length of the dense encoding
	Stretches []Stretch // in order of Off, none overlapping another
}

// Stretch is Data at offset Off of a dense encoding.
type Stretch struct {
	Off  int
	Data []byte
}

// SparseOf returns the one-stretch form of the dense encoding enc, which it
// shares.
func SparseOf(enc []byte) Sparse {
	if len(enc) == 0 {
		return Sparse{}
	}
	return Sparse{Len: len(enc), Stretches: []Stretch{{Data: enc}}}
}

// AppendDense appends the dense encoding of the well-formed s to buf.
func (s Sparse) AppendDense(buf []byte) []byte {
	buf = slices.Grow(buf, s.Len)
	at := 0
	for _, st := range s.Stretches {
		buf = append(buf, make([]byte, st.Off-at)...)
		buf = append(buf, st.Data...)
		at = st.Off + len(st.Data)
	}
	return append(buf, make([]byte, s.Len-at)...)
}

// check reports whether s is well formed: its stretches in order of offset,
// apart, and inside its length.
func (s Sparse) check() error {
	if s.Len < 0 {
		return fmt.Errorf("memsys: sparse encoding of negative length %d", s.Len)
	}
	end := 0
	for i, st := range s.Stretches {
		if st.Off < end || st.Off > s.Len || len(st.Data) > s.Len-st.Off {
			return fmt.Errorf("memsys: stretch %d of a sparse encoding (%d bytes at %d) overlaps the one before it or passes the length %d",
				i, len(st.Data), st.Off, s.Len)
		}
		end = st.Off + len(st.Data)
	}
	return nil
}

// minGap is the shortest run of zero bytes between two stretches that a
// SparseWriter leaves as a gap; a shorter one stays inside the stretch,
// where it costs less than a second Stretch would.
const minGap = 64

// A SparseWriter builds a Sparse from an encoding given in order: Write
// gives it bytes and Zeros zero bytes. The zero value is ready to use.
//
// It is also the sink of the one exact encoder: AppendExact's writer is
// dense, and appends the zero bytes of Zeros to its buffer.
type SparseWriter struct {
	buf   []byte    // dense: the whole encoding; else the stretches' bytes, back to back
	dense bool      // Zeros appends zero bytes to buf
	runs  []Stretch // the stretches closed so far; Sparse re-slices their Data from buf
	off   int       // offset in the encoding of buf[open]
	open  int       // where in buf the open stretch starts
	zeros int       // zero bytes given to Zeros and not placed yet
}

// Write appends p, which it does not keep.
func (w *SparseWriter) Write(p []byte) {
	if len(p) > 0 {
		w.place()
		w.buf = append(w.buf, p...)
	}
}

// Zeros appends n zero bytes.
func (w *SparseWriter) Zeros(n int) {
	if w.dense {
		w.buf = append(w.buf, make([]byte, n)...)
		return
	}
	w.zeros += n
}

func (w *SparseWriter) u64(v uint64) {
	w.place()
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

func (w *SparseWriter) line(l *Line) {
	w.place()
	w.buf = l.appendExact(w.buf)
}

// place puts the pending zero bytes in front of the bytes about to be
// written: inside the open stretch if they are fewer than minGap, or else
// as a gap, which closes it.
func (w *SparseWriter) place() {
	if w.zeros == 0 {
		return
	}
	if w.zeros < minGap && len(w.buf) > w.open {
		w.buf = append(w.buf, make([]byte, w.zeros)...)
	} else {
		w.close()
		w.off += w.zeros
	}
	w.zeros = 0
}

// close ends the open stretch, if it holds any bytes.
func (w *SparseWriter) close() {
	if n := len(w.buf) - w.open; n > 0 {
		w.runs = append(w.runs, Stretch{Off: w.off, Data: w.buf[w.open:]})
		w.off += n
		w.open = len(w.buf)
	}
}

// Sparse returns the encoding written so far. Its stretches share the
// writer's buffer, so the writer must not be used afterwards.
func (w *SparseWriter) Sparse() Sparse {
	w.close()
	at := 0
	for i := range w.runs {
		n := len(w.runs[i].Data)
		w.runs[i].Data = w.buf[at : at+n : at+n]
		at += n
	}
	return Sparse{Len: w.off + w.zeros, Stretches: w.runs}
}

// exactReader decodes an exact encoding from its well-formed sparse form,
// turning truncation into an error instead of a panic. Bytes in a gap read
// as zero.
type exactReader struct {
	s    Sparse
	pos  int    // offset of the next byte
	i    int    // the first stretch that ends after pos, or len(s.Stretches)
	tmp  []byte // the bytes of a read that no single stretch holds
	last Addr   // the address of the map entry read last (ascending)
	err  error
}

// seek advances i to the first stretch that ends after pos.
func (r *exactReader) seek() {
	st := r.s.Stretches
	for r.i < len(st) && st[r.i].Off+len(st[r.i].Data) <= r.pos {
		r.i++
	}
}

// bytes returns the next n bytes. The slice may be the reader's scratch,
// valid until the next read.
func (r *exactReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.s.Len-r.pos {
		r.err = fmt.Errorf("memsys: truncated exact encoding (need %d bytes, have %d)", n, r.s.Len-r.pos)
		return nil
	}
	r.seek()
	at := r.pos
	r.pos += n
	st := r.s.Stretches[r.i:]
	if len(st) > 0 && st[0].Off <= at && at+n <= st[0].Off+len(st[0].Data) {
		return st[0].Data[at-st[0].Off:][:n]
	}
	r.tmp = append(r.tmp[:0], make([]byte, n)...)
	for _, x := range st {
		if x.Off >= at+n {
			break
		}
		lo := max(x.Off, at)
		copy(r.tmp[lo-at:], x.Data[lo-x.Off:min(len(x.Data), at+n-x.Off)])
	}
	return r.tmp
}

// skipGap skips the next n bytes and reports true if they lie in a gap; if
// they do not, it reads nothing.
func (r *exactReader) skipGap(n int) bool {
	if r.err != nil || n > r.s.Len-r.pos {
		return false
	}
	r.seek()
	if st := r.s.Stretches; r.i < len(st) && st[r.i].Off < r.pos+n {
		return false
	}
	r.pos += n
	return true
}

// skip skips count records of size bytes each.
func (r *exactReader) skip(count uint64, size int) {
	if r.err != nil {
		return
	}
	if left := r.s.Len - r.pos; count > uint64(left/size) {
		r.err = fmt.Errorf("memsys: truncated exact encoding (%d records of %d bytes, %d bytes left)", count, size, left)
		return
	}
	r.pos += int(count) * size
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
