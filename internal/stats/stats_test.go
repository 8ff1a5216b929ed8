package stats

import (
	"math"
	"testing"
)

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatal("n=0 must give [0,1]")
	}
	lo, hi = WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("50/100 interval [%v,%v] must straddle 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide: [%v,%v]", lo, hi)
	}
	// Zero successes: lower bound 0, upper bound small but positive.
	lo, hi = WilsonInterval(0, 10000)
	if lo != 0 || hi <= 0 || hi > 0.01 {
		t.Fatalf("0/10000 interval [%v,%v]", lo, hi)
	}
	// All successes mirror.
	lo, hi = WilsonInterval(10000, 10000)
	if hi != 1 || lo < 0.99 {
		t.Fatalf("10000/10000 interval [%v,%v]", lo, hi)
	}
	// Monotone tightening with n.
	_, hi1 := WilsonInterval(0, 100)
	_, hi2 := WilsonInterval(0, 10000)
	if hi2 >= hi1 {
		t.Fatal("interval does not tighten with n")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive input did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("plain ratio wrong")
	}
	if Ratio(0, 0) != 1 {
		t.Fatal("0/0 must be 1")
	}
	if !math.IsInf(Ratio(5, 0), 1) {
		t.Fatal("x/0 must be +Inf")
	}
}
