package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 100; i >= 1; i-- { // reverse order: selection must handle it
		h.Observe(uint64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Observing after a query must count in the next one.
	h.Observe(1000)
	if h.Max() != 1000 {
		t.Fatal("max stale after Observe")
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	single := NewHistogram()
	single.Observe(7)
	cases := []struct {
		name string
		h    *Histogram
		p    float64
		want float64
	}{
		{"single-p0", single, 0, 7},
		{"single-p50", single, 50, 7},
		{"single-p999", single, 99.9, 7},
		{"single-p100", single, 100, 7},
	}
	for _, tc := range cases {
		if got := tc.h.Percentile(tc.p); got != tc.want {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// p=100 and p=99.9 must never index past the last sample, whatever
	// rounding p/100*n does; sweep sizes around powers of ten where the
	// ceil boundary lands exactly on n.
	for _, n := range []int{2, 3, 10, 999, 1000, 1001} {
		h := NewHistogram()
		for i := 1; i <= n; i++ {
			h.Observe(uint64(i))
		}
		if got := h.Percentile(100); got != float64(n) {
			t.Fatalf("n=%d p100 = %v", n, got)
		}
		if got := h.Percentile(99.9); got > float64(n) {
			t.Fatalf("n=%d p99.9 = %v beyond max", n, got)
		}
	}
}

func TestHistogramNaNPercentilePanics(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("NaN percentile did not panic")
		}
	}()
	h.Percentile(math.NaN())
}

func TestHistogramEmptyAndInvalid(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Percentile(50)) || !math.IsNaN(h.Mean()) {
		t.Fatal("empty histogram must return NaN")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid percentile did not panic")
		}
	}()
	h.Observe(1)
	h.Percentile(101)
}

// floatPercentile is the nearest-rank percentile over float samples
// sorted with sort.Float64s, the form Histogram answered with before it
// held integers.
func floatPercentile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// TestHistogramMatchesSortedFloats draws random integer samples — narrow
// ranges full of ties, wide ranges (sums below 2^53, where a float sum
// is exact) and a latency-like long tail — and
// requires every percentile the simulator and the tests ask for, the
// mean and the max to equal the sorted-float reference, including after
// more samples arrive between queries.
func TestHistogramMatchesSortedFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draws := map[string]func() uint64{
		"ties":  func() uint64 { return uint64(rng.Intn(4)) },
		"wide":  func() uint64 { return rng.Uint64() >> 24 },
		"tail":  func() uint64 { return 40 + uint64(rng.ExpFloat64()*60) },
		"equal": func() uint64 { return 9 },
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 3, 10, 999, 1000, 1001, 2800} {
			h := NewHistogram()
			var ref []float64
			for round := 0; round < 2; round++ {
				for i := 0; i < n; i++ {
					v := draw()
					h.Observe(v)
					ref = append(ref, float64(v))
				}
				for _, p := range []float64{0, 50, 99, 99.9, 100} {
					if got, want := h.Percentile(p), floatPercentile(ref, p); got != want {
						t.Fatalf("%s n=%d round %d: p%v = %v, want %v", name, n, round, p, got, want)
					}
				}
				if got, want := h.Mean(), Mean(ref); got != want {
					t.Fatalf("%s n=%d round %d: mean %v, want %v", name, n, round, got, want)
				}
				if got, want := h.Max(), floatPercentile(ref, 100); got != want {
					t.Fatalf("%s n=%d round %d: max %v, want %v", name, n, round, got, want)
				}
			}
		}
	}
}

// TestHistogramQueryOrders asks for percentiles in ascending,
// descending and random order, repeats queries, observes between them
// and asks for Max after a lower percentile, so that each query starts
// from the partition the one before it left, or from none after an
// Observe. Every answer must equal the sorted-float reference.
func TestHistogramQueryOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := []float64{0, 1, 25, 50, 50, 90, 99, 99, 99.9, 100}
	for _, n := range []int{1, 2, 3, 10, 999, 2800} {
		for _, order := range []string{"ascending", "descending", "random"} {
			h := NewHistogram()
			var ref []float64
			observe := func(k int) {
				for i := 0; i < k; i++ {
					v := 40 + uint64(rng.ExpFloat64()*60)
					if rng.Intn(4) == 0 {
						v = uint64(rng.Intn(8)) // ties
					}
					h.Observe(v)
					ref = append(ref, float64(v))
				}
			}
			check := func(p float64) {
				t.Helper()
				if got, want := h.Percentile(p), floatPercentile(ref, p); got != want {
					t.Fatalf("n=%d %s: p%v = %v, want %v", n, order, p, got, want)
				}
			}
			observe(n)
			for round := 0; round < 3; round++ {
				qs := slices.Clone(ps)
				switch order {
				case "descending":
					slices.Reverse(qs)
				case "random":
					rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				}
				for i, p := range qs {
					check(p)
					check(p) // the same rank again
					if i == len(qs)/2 {
						observe(1 + rng.Intn(3))
					}
				}
				check(50)
				if got, want := h.Max(), floatPercentile(ref, 100); got != want {
					t.Fatalf("n=%d %s: max after p50 = %v, want %v", n, order, got, want)
				}
				observe(n / 2)
			}
		}
	}
}

func TestHistogramGrowReservesRoom(t *testing.T) {
	h := NewHistogram()
	h.Observe(3)
	h.Grow(100)
	first := &h.samples[0]
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i))
	}
	if &h.samples[0] != first {
		t.Fatal("Observe copied the samples after Grow made room")
	}
	if h.Count() != 101 || h.Percentile(100) != 99 {
		t.Fatalf("count %d, max %v", h.Count(), h.Percentile(100))
	}
}
