package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Histogram collects integer samples (latencies in cycles) for
// percentile queries. It stores samples exactly (the experiment scales
// here are small enough) and answers each percentile by selecting the
// sample of that rank in place, without sorting. A selection leaves the
// samples partitioned around the rank it placed, and the next query
// searches only the side that holds its own rank.
type Histogram struct {
	samples []uint64
	sum     uint64
	// sel is the index the last selection placed, valid while selected:
	// samples[:sel] <= samples[sel] <= samples[sel+1:]. Observe clears
	// selected.
	sel      int
	selected bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Grow makes room for n more samples, so the next n Observe calls copy
// nothing.
func (h *Histogram) Grow(n int) { h.samples = slices.Grow(h.samples, n) }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.selected = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank,
// or NaN when empty. It reorders the samples.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: invalid percentile %v", p))
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	// Clamp both ends: p=0 maps to the first sample, and float rounding
	// of p/100*n at p near 100 must not index past the last.
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	k, lo, hi := rank-1, 0, len(h.samples)
	if h.selected {
		switch {
		case k == h.sel:
			return float64(h.samples[k])
		case k > h.sel:
			lo = h.sel + 1
		default:
			hi = h.sel
		}
	}
	v := selectRank(h.samples[lo:hi], k-lo)
	h.sel, h.selected = k, true
	return float64(v)
}

// Mean returns the arithmetic mean (NaN when empty). It equals the mean
// of the samples as floats while their sum stays below 2^53.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(len(h.samples))
}

// Max returns the largest sample (NaN when empty).
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// selectRank reorders a so that a[k] holds the value sorting would put
// there, and returns it: a quickselect with a median-of-three pivot and
// a three-way partition, so runs of equal latencies end the search
// early. A search that has not converged after 2·log2(n) partitions
// sorts what is left.
func selectRank(a []uint64, k int) uint64 {
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			break
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return a[k]
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
