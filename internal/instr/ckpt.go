package instr

import (
	"fmt"
	"path"

	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

// The statistics-registry histograms the hook feeds, indexes into regHists.
const (
	regCommitLat = iota
	regReadSet
	regWriteSet
	regLoadLat
	regStoreLat
	numRegHists
)

// regHists describes each registry histogram: its checkpoint key
// (component/name), its description and its bounds. Operation latencies
// bucket an L1 hit, a bus transfer, an L2 hit, a memory round trip and
// everything slower.
var regHists = [numRegHists]struct {
	key, desc string
	bounds    []uint64
}{
	{"engine/commit_latency", "begin-to-commit latency in cycles", []uint64{64, 256, 1024, 4096, 16384}},
	{"engine/tx_read_set", "per-transaction read set in bytes", []uint64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}},
	{"engine/tx_write_set", "per-transaction write set in bytes", []uint64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}},
	{"memsys/load_latency", "load latency in cycles", []uint64{4, 16, 64, 256, 1024}},
	{"memsys/store_latency", "store latency in cycles", []uint64{4, 16, 64, 256, 1024}},
}

// Register mounts component's ("engine" or "memsys") registry histograms in
// g, restoring any checkpointed state RestoreCkpt left pending for them.
// They only fill while registered.
func (h *Hook) Register(g obs.Group, component string) {
	for i, d := range regHists {
		if path.Dir(d.key) != component {
			continue
		}
		h.reg[i] = g.Histogram(path.Base(d.key), d.desc, d.bounds)
		if ck, ok := h.pending[d.key]; ok {
			if err := h.reg[i].RestoreCkpt(ck); err != nil {
				panic(err) // RestoreCkpt checked the bucket count
			}
		}
	}
}

// Instruments names the checkpointed instruments, in Attached order.
var Instruments = [...]string{"profiler", "time-series sampler", "conflict recorder", "latency histograms", "statistics registry"}

// Ckpt is the instrument state of an hmtx-ckpt/v1 run checkpoint (DESIGN.md
// §18); a section is nil when its instrument was not attached. ObsHists holds
// the registry histograms by key, present when a registry was attached: the
// registry's counters and scalars read live engine and memory state, so only
// its histograms carry recording-time state of their own.
type Ckpt struct {
	Prof      *prof.Ckpt              `json:"prof,omitempty"`
	Series    *metrics.SamplerCkpt    `json:"series,omitempty"`
	Conflicts *metrics.RecorderCkpt   `json:"conflicts,omitempty"`
	Hists     *metrics.LatHistsCkpt   `json:"hists,omitempty"`
	ObsHists  map[string]obs.HistCkpt `json:"obs_hists,omitempty"`
}

// Attached reports which Instruments ck holds state for; a resume must
// attach exactly these.
func (ck *Ckpt) Attached() [len(Instruments)]bool {
	return [...]bool{ck.Prof != nil, ck.Series != nil, ck.Conflicts != nil, ck.Hists != nil, ck.ObsHists != nil}
}

// CaptureCkpt snapshots every attached instrument at a run boundary; a nil
// hook captures nothing.
func (h *Hook) CaptureCkpt() Ckpt {
	var ck Ckpt
	if h == nil {
		return ck
	}
	if h.Prof.Enabled() {
		p := h.Prof.CaptureCkpt()
		ck.Prof = &p
	}
	if h.Series.Enabled() {
		sm := h.Series.CaptureCkpt()
		ck.Series = &sm
	}
	if h.Conflicts.Enabled() {
		r := h.Conflicts.CaptureCkpt()
		ck.Conflicts = &r
	}
	if h.Lat.Enabled() {
		l := h.Lat.CaptureCkpt()
		ck.Hists = &l
	}
	for i, r := range h.reg {
		if r != nil {
			if ck.ObsHists == nil {
				ck.ObsHists = map[string]obs.HistCkpt{}
			}
			ck.ObsHists[regHists[i].key] = r.Ckpt()
		}
	}
	return ck
}

// RestoreCkpt restores each attached instrument from its section of ck; the
// caller attaches fresh instruments for exactly the sections ck holds.
// Registry-histogram state is checked now and applied at registration.
func (h *Hook) RestoreCkpt(ck Ckpt) error {
	if h.Prof.Enabled() && ck.Prof != nil {
		if err := h.Prof.RestoreCkpt(*ck.Prof); err != nil {
			return err
		}
	}
	if h.Series.Enabled() && ck.Series != nil {
		if err := h.Series.RestoreCkpt(*ck.Series); err != nil {
			return err
		}
	}
	if h.Conflicts.Enabled() && ck.Conflicts != nil {
		if err := h.Conflicts.RestoreCkpt(*ck.Conflicts); err != nil {
			return err
		}
	}
	if h.Lat.Enabled() && ck.Hists != nil {
		if err := h.Lat.RestoreCkpt(*ck.Hists); err != nil {
			return err
		}
	}
	if ck.ObsHists == nil {
		return nil
	}
	// The engine and its hierarchy register together, so a registry's
	// checkpoint holds every histogram.
	if len(ck.ObsHists) != numRegHists {
		return fmt.Errorf("instr: checkpoint has %d registry histograms, want %d", len(ck.ObsHists), numRegHists)
	}
	for _, d := range regHists {
		if hc, ok := ck.ObsHists[d.key]; !ok || len(hc.Counts) != len(d.bounds)+1 {
			return fmt.Errorf("instr: checkpoint histogram %s is missing or has %d buckets, want %d", d.key, len(hc.Counts), len(d.bounds)+1)
		}
	}
	h.pending = ck.ObsHists
	return nil
}
