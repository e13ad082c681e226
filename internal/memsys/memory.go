package memsys

import "slices"

// chunkLines is the number of lines a memory chunk holds. Eight lines (512
// bytes) keep a sparse layout cheap: the manycore workload touches one line
// per 4 KB, and a chunk of 64 lines would allocate 4 KB for each of them.
const chunkLines = 8

// chunkMask masks an address's offset in its chunk; clearing those bits
// leaves the chunk's base address.
const chunkMask = chunkLines*LineSize - 1

// memChunk is eight consecutive lines of main memory. Bit i of present is
// set once line i has been written; a line never written reads as zero.
type memChunk struct {
	present uint8
	data    [chunkLines][LineSize]byte
}

// memory is the simulated main memory: a sparse map of 8-line chunks, keyed
// by the chunk's base address. Absent lines read as zero, matching
// demand-zeroed pages. Words are written in place, so a store costs one map
// lookup and no copy of the line. A line is present from its first write on,
// even if it holds zeros: the exact encoding lists exactly the present lines.
type memory struct {
	chunks map[Addr]*memChunk
	lines  int // number of present lines
}

func newMemory() *memory { return &memory{chunks: make(map[Addr]*memChunk)} }

// lineOf returns the chunk holding lineAddr (nil if none) and the line's
// index in it.
func (m *memory) lineOf(lineAddr Addr) (*memChunk, int) {
	return m.chunks[lineAddr&^chunkMask], int(lineAddr&chunkMask) / LineSize
}

// line returns lineAddr's storage, marking the line present and allocating
// its chunk if needed.
func (m *memory) line(lineAddr Addr) *[LineSize]byte {
	ch, i := m.lineOf(lineAddr)
	if ch == nil {
		ch = &memChunk{}
		m.chunks[lineAddr&^chunkMask] = ch
	}
	if ch.present&(1<<i) == 0 {
		ch.present |= 1 << i
		m.lines++
	}
	return &ch.data[i]
}

func (m *memory) read(lineAddr Addr) [LineSize]byte {
	ch, i := m.lineOf(lineAddr)
	if ch == nil {
		return [LineSize]byte{}
	}
	return ch.data[i]
}

func (m *memory) write(lineAddr Addr, data [LineSize]byte) {
	*m.line(lineAddr) = data
}

func (m *memory) word(addr Addr) uint64 {
	la := LineAddr(addr)
	ch, li := m.lineOf(la)
	if ch == nil {
		return 0
	}
	p, off := &ch.data[li], addr-la
	var v uint64
	for i := 0; i < WordSize; i++ {
		v |= uint64(p[off+Addr(i)]) << (8 * i)
	}
	return v
}

func (m *memory) setWord(addr Addr, val uint64) {
	la := LineAddr(addr)
	p, off := m.line(la), addr-la
	for i := 0; i < WordSize; i++ {
		p[off+Addr(i)] = byte(val >> (8 * i))
	}
}

// eachLine calls fn for every present line, in ascending address order. It
// sorts the chunks' base addresses in keys[:0], which it may grow.
func (m *memory) eachLine(keys []Addr, fn func(lineAddr Addr, data *[LineSize]byte)) {
	keys = keys[:0]
	for base := range m.chunks {
		keys = append(keys, base)
	}
	slices.Sort(keys)
	for _, base := range keys {
		ch := m.chunks[base]
		for i := range ch.data {
			if ch.present&(1<<i) != 0 {
				fn(base+Addr(i)*LineSize, &ch.data[i])
			}
		}
	}
}
