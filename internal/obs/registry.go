package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"hmtx/internal/stats"
)

// Registry is a hierarchical statistics registry in the style of gem5's
// stats dump: components register named counters, scalar formulas and
// fixed-bucket histograms under dotted paths ("memsys.l1[0].hits",
// "engine.aborts.overflow"), and a Snapshot renders them as an aligned text
// table or deterministic JSON.
//
// Counters and scalars are read-through closures over a component's own
// fields, evaluated at snapshot time. The Registry is not safe for
// concurrent use.
type Registry struct {
	entries []*entry
	byName  map[string]*entry
}

type entryKind uint8

const (
	entryCounter entryKind = iota
	entryScalar
	entryHist
)

type entry struct {
	name, desc string
	kind       entryKind
	counter    func() uint64
	scalar     func() float64
	hist       *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// Histogram is a fixed-bucket histogram of uint64 samples. Bounds are
// inclusive upper bounds; one extra overflow bucket catches larger samples.
type Histogram struct {
	bounds []uint64
	counts []uint64
	total  uint64
	sum    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
	h.sum += v
}

// Total returns the number of samples observed.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the mean sample (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// HistCkpt is a Histogram's recorded contents for hmtx-ckpt/v1 checkpoints
// (DESIGN.md §18). Bounds are construction-time configuration, not state, so
// only the sample record is carried; RestoreCkpt validates the bucket count
// against the receiver's bounds.
type HistCkpt struct {
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total,omitempty"`
	Sum    uint64   `json:"sum,omitempty"`
}

// Ckpt captures the histogram's recorded samples.
func (h *Histogram) Ckpt() HistCkpt {
	ck := HistCkpt{Counts: make([]uint64, len(h.counts)), Total: h.total, Sum: h.sum}
	copy(ck.Counts, h.counts)
	return ck
}

// RestoreCkpt overwrites the recorded samples with a checkpoint taken from a
// histogram with the same bounds.
func (h *Histogram) RestoreCkpt(ck HistCkpt) error {
	if len(ck.Counts) != len(h.counts) {
		return fmt.Errorf("obs: histogram checkpoint has %d buckets, histogram has %d", len(ck.Counts), len(h.counts))
	}
	copy(h.counts, ck.Counts)
	h.total, h.sum = ck.Total, ck.Sum
	return nil
}

func (r *Registry) add(name, desc string, e *entry) *entry {
	if name == "" {
		panic("obs: empty stat name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate stat %q", name))
	}
	e.name, e.desc = name, desc
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// CounterFunc registers a counter read through f at snapshot time, for
// components that keep their counts in plain struct fields.
func (r *Registry) CounterFunc(name, desc string, f func() uint64) {
	r.add(name, desc, &entry{kind: entryCounter, counter: f})
}

// Scalar registers a derived scalar formula evaluated at snapshot time.
// Non-finite results snapshot as 0 so JSON dumps stay valid.
func (r *Registry) Scalar(name, desc string, f func() float64) {
	r.add(name, desc, &entry{kind: entryScalar, scalar: f})
}

// Histogram registers and returns a histogram with the given inclusive
// upper bounds (which must be strictly increasing).
func (r *Registry) Histogram(name, desc string, bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not increasing", name))
		}
	}
	h := &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	r.add(name, desc, &entry{kind: entryHist, hist: h})
	return h
}

// Group returns a view of the registry that prefixes every name with
// prefix + ".", so a component can register its stats without knowing where
// it is mounted.
func (r *Registry) Group(prefix string) Group { return Group{r: r, prefix: prefix} }

// Group is a prefixed view of a Registry; see Registry.Group.
type Group struct {
	r      *Registry
	prefix string
}

func (g Group) full(name string) string {
	if g.prefix == "" {
		return name
	}
	return g.prefix + "." + name
}

// Group nests a further prefix.
func (g Group) Group(prefix string) Group {
	return Group{r: g.r, prefix: g.full(prefix)}
}

// CounterFunc registers a read-through counter under the group's prefix.
func (g Group) CounterFunc(name, desc string, f func() uint64) {
	g.r.CounterFunc(g.full(name), desc, f)
}

// Scalar registers a derived scalar under the group's prefix.
func (g Group) Scalar(name, desc string, f func() float64) { g.r.Scalar(g.full(name), desc, f) }

// Histogram registers a histogram under the group's prefix.
func (g Group) Histogram(name, desc string, bounds []uint64) *Histogram {
	return g.r.Histogram(g.full(name), desc, bounds)
}

// HistSnapshot is a histogram's frozen contents. Counts has one more element
// than Bounds: the overflow bucket.
type HistSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
}

// SnapEntry is one frozen statistic.
type SnapEntry struct {
	Name, Desc string
	Kind       string // "counter", "scalar" or "hist"
	Counter    uint64
	Scalar     float64
	Hist       *HistSnapshot
}

// Snapshot is a frozen, name-sorted view of a registry.
type Snapshot struct {
	Entries []SnapEntry
}

// Snapshot freezes every statistic, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{Entries: make([]SnapEntry, 0, len(r.entries))}
	for _, e := range r.entries {
		se := SnapEntry{Name: e.name, Desc: e.desc}
		switch e.kind {
		case entryCounter:
			se.Kind = "counter"
			se.Counter = e.counter()
		case entryScalar:
			se.Kind = "scalar"
			v := e.scalar()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			se.Scalar = v
		case entryHist:
			se.Kind = "hist"
			h := e.hist
			se.Hist = &HistSnapshot{
				Bounds: append([]uint64(nil), h.bounds...),
				Counts: append([]uint64(nil), h.counts...),
				Total:  h.total,
				Sum:    h.sum,
			}
		}
		out.Entries = append(out.Entries, se)
	}
	sort.Slice(out.Entries, func(i, j int) bool { return out.Entries[i].Name < out.Entries[j].Name })
	return out
}

// Text renders the snapshot as an aligned table, one row per statistic and
// one row per histogram bucket, in gem5's dotted-name dump style.
func (s Snapshot) Text() string {
	var t stats.Table
	t.Add("name", "value", "description")
	for _, e := range s.Entries {
		switch e.Kind {
		case "counter":
			t.Add(e.Name, fmt.Sprintf("%d", e.Counter), e.Desc)
		case "scalar":
			t.Add(e.Name, fmt.Sprintf("%.4f", e.Scalar), e.Desc)
		case "hist":
			h := e.Hist
			t.Add(e.Name, fmt.Sprintf("%d", h.Total),
				fmt.Sprintf("%s (samples; mean %.1f)", e.Desc, histMean(h)))
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				label := "+Inf"
				if i < len(h.Bounds) {
					label = fmt.Sprintf("%d", h.Bounds[i])
				}
				t.Add(fmt.Sprintf("%s[<=%s]", e.Name, label), fmt.Sprintf("%d", c), "")
			}
		}
	}
	return t.String()
}

func histMean(h *HistSnapshot) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// JSON renders the snapshot as indented JSON. Map keys marshal sorted, so
// the document is byte-identical across runs with identical values.
func (s Snapshot) JSON() ([]byte, error) {
	tree, err := s.Nested()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(tree, "", "  ")
}

// Nested converts the snapshot to a tree keyed by the dotted name segments,
// with counters and scalars as leaves and histograms as
// {"bounds","counts","total","sum"} objects. It errors if one name is both a
// leaf and a prefix of another.
func (s Snapshot) Nested() (map[string]any, error) {
	root := make(map[string]any)
	for _, e := range s.Entries {
		segs := strings.Split(e.Name, ".")
		node := root
		for _, seg := range segs[:len(segs)-1] {
			child, ok := node[seg]
			if !ok {
				m := make(map[string]any)
				node[seg] = m
				node = m
				continue
			}
			m, ok := child.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("obs: stat %q conflicts with a leaf at %q", e.Name, seg)
			}
			node = m
		}
		leaf := segs[len(segs)-1]
		if _, exists := node[leaf]; exists {
			return nil, fmt.Errorf("obs: stat %q conflicts with an existing subtree", e.Name)
		}
		switch e.Kind {
		case "counter":
			node[leaf] = e.Counter
		case "scalar":
			node[leaf] = e.Scalar
		case "hist":
			node[leaf] = e.Hist
		}
	}
	return root, nil
}
