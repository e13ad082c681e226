// Package metrics holds the temporal and causal instruments of DESIGN.md §15:
// a windowed time-series sampler over the simulation's counters (series.go), a
// causal who-aborted-whom conflict recorder (conflict.go), and deterministic
// log-bucketed latency histograms (this file). Each instrument is a fold over
// the simulation's obs.Event stream with one recording method, Fold. Like
// obs.Tracer and prof.Collector, the nil value of every instrument is a valid
// disabled instance: Enabled reports false, and the instrument hook
// (internal/instr) hands events only to the attached ones.
//
// Everything in this package is deterministic by construction: only simulated
// quantities enter any instrument, buckets and bounds are integers (no floats
// on the recording path), and every serialisation walks explicit sorted or
// insertion-ordered key slices, never map iteration order. Documents produced
// from the same simulated execution are byte-identical across host runs and
// across experiment-suite parallelism.
package metrics

import (
	"fmt"
	"math/bits"

	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/stats"
)

// histSubBuckets is the number of linear sub-buckets per power-of-two major
// bucket: values ≥ histSubBuckets land in a bucket whose width is 1/16 of the
// value's magnitude, bounding the relative quantisation error of every
// percentile at 1/histSubBuckets.
const histSubBuckets = 16

// histBuckets is the total bucket count: values below histSubBuckets are
// recorded exactly, and each further power of two contributes histSubBuckets
// linear sub-buckets up to the full uint64 range.
const histBuckets = (64 - 4 + 1) * histSubBuckets

// bucketIndex maps a value to its bucket. Values below histSubBuckets map to
// themselves (exact); larger values map to sub-bucket v>>shift of their
// power-of-two decade. The function is monotone, so cumulative walks yield
// exact ranks.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 5 // v>>shift lands in [16, 32)
	return shift*histSubBuckets + int(v>>uint(shift))
}

// bucketBounds returns the inclusive value range covered by bucket idx.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < histSubBuckets {
		return uint64(idx), uint64(idx)
	}
	shift := idx/histSubBuckets - 1
	sub := uint64(idx - shift*histSubBuckets) // in [16, 32)
	lo = sub << uint(shift)
	return lo, lo + 1<<uint(shift) - 1
}

// Hist is one deterministic log-bucketed latency histogram (HDR-style:
// power-of-two decades with linear sub-buckets, all-integer recording path).
type Hist struct {
	name   string
	counts [histBuckets]uint64
	total  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// newHist returns an empty histogram with the given stable name.
func newHist(name string) *Hist { return &Hist{name: name, min: ^uint64(0)} }

// Name returns the histogram's name.
func (h *Hist) Name() string { return h.name }

// observe records one value. The recording path is two integer operations and
// four counter updates: no floats, no allocation.
func (h *Hist) observe(v uint64) {
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Total returns the number of observations.
func (h *Hist) Total() uint64 { return h.total }

// Quantile returns the value at quantile q in [0, 1]: the upper bound of the
// bucket containing the observation of rank ceil(q·total) (exact for values
// below histSubBuckets, within 1/16 relative error above). It returns 0 for an
// empty histogram.
func (h *Hist) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q*float64(h.total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			_, hi := bucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// HistSnapshot is the serialisable form of one histogram: sparse non-zero
// buckets in ascending value order plus the exact summary statistics and the
// extracted percentiles.
type HistSnapshot struct {
	Name  string `json:"name"`
	Total uint64 `json:"total"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	Mean  uint64 `json:"mean"` // integer floor of sum/total
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`

	// Buckets holds every non-zero bucket in ascending value order.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-zero histogram bucket: the inclusive value range it
// covers and the observation count.
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Snapshot renders the histogram. An empty histogram yields zero statistics
// and no buckets.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Total: h.total, Sum: h.sum}
	if h.total == 0 {
		return s
	}
	s.Min, s.Max = h.min, h.max
	s.Mean = h.sum / h.total
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: h.counts[i]})
	}
	return s
}

// LatHists bundles the three transaction-latency histograms the engine feeds
// (DESIGN.md §15): epoch open→commit latency, per-batch validation latency,
// and in-order commit-arbitration stall latency. The nil value is the valid
// disabled instrument.
type LatHists struct {
	// Open is begin-to-commit latency per committed transaction.
	Open *Hist
	// Validation is the length of each validation work batch (SMTX §2.3;
	// zero-total under HMTX, which moves validation into hardware).
	Validation *Hist
	// CommitArb is the commit-arbitration stall: cycles a core spent parked
	// waiting for its in-order commit turn (§4.7).
	CommitArb *Hist
}

// NewLatHists returns the standard latency-histogram bundle.
func NewLatHists() *LatHists {
	return &LatHists{
		Open:       newHist("open_to_commit"),
		Validation: newHist("validation"),
		CommitArb:  newHist("commit_arbitration"),
	}
}

// Enabled reports whether latency collection is active; safe (and false) on
// a nil bundle.
func (l *LatHists) Enabled() bool { return l != nil }

// Fold folds one event of the simulation's stream: a KTxCommit's latency
// (Arg) into Open, a Validation KCharge into Validation, and the stall (Arg)
// of every commit's turn, parked (KCommitResume) or not (KCommitArb), into
// CommitArb. Every other kind is ignored.
func (l *LatHists) Fold(e obs.Event) {
	if latKinds.Has(e.Kind) {
		l.fold(e)
	}
}

// latKinds are the kinds Fold reads.
var latKinds = obs.KindsOf(obs.KTxCommit, obs.KCharge, obs.KCommitArb, obs.KCommitResume)

func (l *LatHists) fold(e obs.Event) {
	switch {
	case e.Kind == obs.KTxCommit:
		l.Open.observe(e.Arg)
	case e.Kind == obs.KCharge && prof.Bucket(e.Sub) == prof.Validation:
		l.Validation.observe(e.Arg)
	case e.Kind == obs.KCommitArb || e.Kind == obs.KCommitResume:
		l.CommitArb.observe(e.Arg)
	}
}

// All returns the bundle's histograms in fixed declaration order.
func (l *LatHists) All() []*Hist { return []*Hist{l.Open, l.Validation, l.CommitArb} }

// HistDoc is the machine-readable latency-histogram document
// ("hmtx-hist/v1"). Histogram order is fixed (open_to_commit, validation,
// commit_arbitration per label), so the document is byte-identical across
// runs and suite parallelism.
type HistDoc struct {
	Schema     string         `json:"schema"`
	Scale      int            `json:"scale,omitempty"`
	Cores      int            `json:"cores,omitempty"`
	Histograms []LabeledHists `json:"histograms"`
}

// LabeledHists is one execution's histogram set, labelled like a profile
// ("workload/system").
type LabeledHists struct {
	Label string         `json:"label"`
	Hists []HistSnapshot `json:"hists"`
}

// HistSchema is the schema tag of the latency-histogram document.
const HistSchema = "hmtx-hist/v1"

// Snapshot renders the bundle under the given label.
func (l *LatHists) Snapshot(label string) LabeledHists {
	out := LabeledHists{Label: label}
	for _, h := range l.All() {
		out.Hists = append(out.Hists, h.Snapshot())
	}
	return out
}

// Text renders the labelled histogram set as an aligned latency table.
func (lh *LabeledHists) Text() string {
	out := fmt.Sprintf("latency histograms: %s\n", lh.Label)
	var t stats.Table
	t.Add("histogram", "count", "mean", "p50", "p95", "p99", "p999", "max")
	for i := range lh.Hists {
		h := &lh.Hists[i]
		if h.Total == 0 {
			t.AddF(h.Name, 0, "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddF(h.Name, h.Total, h.Mean, h.P50, h.P95, h.P99, h.P999, h.Max)
	}
	return out + t.String()
}
