package memsys

import "hmtx/internal/vid"

// seqOf widens a hardware VID to its global program-order sequence number
// using the current epoch, so recorded conflict edges stay meaningful across
// VID resets.
func (h *Hierarchy) seqOf(v vid.V) uint64 {
	return uint64(h.cfg.VIDSpace.Join(h.epoch, v))
}

// SpecOccupancy returns the number of cache lines currently in a speculative
// state across every cache. It is a sampling probe, not a fast-path
// operation: the walk visits every way each set has used (DESIGN.md
// §11.8).
func (h *Hierarchy) SpecOccupancy() uint64 {
	var n uint64
	for _, c := range h.all {
		for _, s := range c.sets {
			for w := range s {
				if s[w].St.Speculative() {
					n++
				}
			}
		}
	}
	return n
}
