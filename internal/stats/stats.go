// Package stats provides the small statistical toolkit the experiments
// use: binomial confidence intervals, aggregate helpers and a latency
// histogram.
package stats

import (
	"fmt"
	"math"
)

// WilsonInterval returns the Wilson score 95% confidence interval for a
// binomial proportion with k successes out of n trials.
func WilsonInterval(k, n int64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // 97.5th percentile of the normal
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// GeoMean returns the geometric mean of strictly positive values; it
// panics on non-positive inputs and returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio returns a/b, or +Inf when b is zero and a positive, or 1 when
// both are zero — the convention the reliability-ratio tables use so a
// scheme with zero observed failures reads as "at least this much
// better".
func Ratio(a, b float64) float64 {
	switch {
	case b != 0:
		return a / b
	case a == 0:
		return 1
	default:
		return math.Inf(1)
	}
}
