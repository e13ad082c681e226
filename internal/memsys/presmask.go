package memsys

// presWords sizes the snoop-filter presence mask: one bit per cache (Cores
// L1s plus the L2), so 5 words cover the 255-core configuration cap plus the
// shared L2 with room to spare.
const presWords = 5

// presMask is a fixed-width bitset over cache ids (bit i = h.all[i]), the
// value type of the hierarchy's snoop filter. It is wider than one uint64 so
// configurations beyond 63 cores, up to the 255-core cap, keep the
// conservative-superset filter.
type presMask [presWords]uint64

func (m *presMask) set(i int)     { m[i>>6] |= 1 << (i & 63) }
func (m *presMask) clear(i int)   { m[i>>6] &^= 1 << (i & 63) }
func (m presMask) has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }
func (m presMask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}
