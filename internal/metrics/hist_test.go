package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

// TestBucketIndexMonotone verifies the bucket mapping is monotone and that
// every value falls inside its bucket's reported bounds.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		prev = idx
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d]", v, idx, lo, hi)
		}
	}
	// Spot-check large magnitudes, including the extremes.
	for _, v := range []uint64{1 << 20, 1<<20 + 12345, 1 << 40, 1 << 62, ^uint64(0)} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0, %d)", v, idx, histBuckets)
		}
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d]", v, idx, lo, hi)
		}
	}
}

// TestQuantileSmallExact verifies that percentiles over values below the
// linear range (every value has its own bucket) are exact order statistics.
func TestQuantileSmallExact(t *testing.T) {
	h := newHist("t")
	for v := uint64(0); v < 10; v++ {
		h.observe(v)
	}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0.0, 0}, {0.1, 0}, {0.5, 4}, {0.95, 9}, {1.0, 9},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuantileBounded verifies the 1/16 relative-error bound against exact
// order statistics on a deterministic pseudo-random value set.
func TestQuantileBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHist("t")
	var vals []uint64
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		vals = append(vals, v)
		h.observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
		rank := int(q*float64(len(vals)) + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%v) = %d below exact order statistic %d", q, got, exact)
		}
		// The reported value is the bucket's upper bound: at most
		// 1/16 above the exact statistic.
		if float64(got) > float64(exact)*(1+1.0/16)+1 {
			t.Errorf("Quantile(%v) = %d exceeds %d by more than 1/16", q, got, exact)
		}
	}
}

// TestHistSnapshot verifies summary statistics, sparse ascending buckets, and
// the empty-histogram shape.
func TestHistSnapshot(t *testing.T) {
	h := newHist("lat")
	for _, v := range []uint64{3, 3, 7, 100, 1000} {
		h.observe(v)
	}
	s := h.Snapshot()
	if s.Name != "lat" || s.Total != 5 || s.Min != 3 || s.Max != 1000 {
		t.Fatalf("snapshot summary wrong: %+v", s)
	}
	if s.Sum != 1113 || s.Mean != 222 {
		t.Fatalf("sum/mean wrong: sum %d mean %d", s.Sum, s.Mean)
	}
	var count uint64
	for i, b := range s.Buckets {
		count += b.Count
		if i > 0 && b.Lo <= s.Buckets[i-1].Hi {
			t.Fatalf("buckets not ascending: %+v", s.Buckets)
		}
	}
	if count != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", count)
	}

	empty := newHist("e").Snapshot()
	if empty.Total != 0 || empty.Min != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", empty)
	}
}

// TestLatHistsNilSafe verifies the disabled-instrument contract.
func TestLatHistsNilSafe(t *testing.T) {
	var l *LatHists
	if l.Enabled() {
		t.Fatal("nil LatHists reports enabled")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() {
			if l.Enabled() {
				l.Open.observe(1)
			}
		}); n != 0 {
			t.Errorf("disabled guard allocates: %v allocs/op", n)
		}
	}
}

// TestObserveZeroAlloc pins the all-integer recording path: Observe on an
// existing histogram must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := newHist("t")
	v := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		v += 37
		h.observe(v)
	}); n != 0 {
		t.Errorf("Observe: %v allocs/op, want 0", n)
	}
}
