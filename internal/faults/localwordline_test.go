package faults

import (
	"math/rand"
	"testing"

	"pair/internal/dram"
)

func TestInjectLocalWordlineConfinedToOneMat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := dram.NewRegion(16, 8)
		if InjectLocalWordline(rng, m) == 0 {
			t.Fatal("empty local wordline pattern")
		}
		mats := map[int]bool{}
		for pin := 0; pin < m.Pins; pin++ {
			if m.PinSymbolPart(pin, 0) != 0 {
				mats[pin/MatPins] = true
			}
		}
		if len(mats) != 1 {
			t.Fatalf("local wordline touched %d mats", len(mats))
		}
	}
}

func TestApplyLocalWordlineDeterministicMat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := dram.NewRegion(16, 8)
	ApplyLocalWordline(rng, m, 3)
	for pin := 0; pin < m.Pins; pin++ {
		if m.PinSymbolPart(pin, 0) != 0 && pin/MatPins != 3 {
			t.Fatalf("mat 3 fault corrupted pin %d", pin)
		}
	}
}

func TestSampleLocalWordlineFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	org := dram.DDR4x16()
	f := Sample(rng, PermanentLocalWordline, org)
	if got := f.FootprintAccesses(org); got != int64(org.Cols) {
		t.Fatalf("footprint %d, want %d (one row)", got, org.Cols)
	}
	if f.Lane < 0 || f.Lane >= org.Pins/MatPins {
		t.Fatalf("mat index %d out of range", f.Lane)
	}
}
