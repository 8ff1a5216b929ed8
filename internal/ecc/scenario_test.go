package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

// regionPops sums the per-region population counts of a stored image.
func regionPops(st *Stored) (data, onDie, xfer int) {
	for _, ci := range st.Chips {
		data += ci.Data.PopCount()
		onDie += ci.OnDie.PopCount()
		xfer += ci.Xfer.PopCount()
	}
	return
}

// diffPops returns the per-region corruption a scenario injected into an
// encoded image, by XOR-comparing against a clean encode of the same
// line.
func diffPops(t *testing.T, scheme Scheme, sc faults.Scenario, seed int64) (data, onDie, xfer int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	line := make([]byte, scheme.Org().LineBytes())
	rng.Read(line)
	clean := Encode(scheme, line)
	dirty := clean.Clone()
	ScenarioInjector(sc)(rng, dirty)
	for i := range dirty.buf {
		dirty.buf[i] ^= clean.buf[i]
	}
	return regionPops(dirty)
}

// TestScenarioInjectorRegionReach verifies the bridge exposes the right
// physical regions: a pin fault corrupts DUO's transferred redundancy
// but never IECC's on-die check bits, while inherent noise reaches every
// region including the on-die bits.
func TestScenarioInjectorRegionReach(t *testing.T) {
	org := dram.DDR4x16()
	pin := faults.MustScenario("pin")

	duo := NewDUO(org)
	sawXfer := false
	for seed := int64(0); seed < 50; seed++ {
		data, onDie, xfer := diffPops(t, duo, pin, seed)
		if onDie != 0 {
			t.Fatalf("pin scenario reached DUO's on-die region (seed %d)", seed)
		}
		if data+xfer == 0 {
			t.Fatalf("pin scenario flipped nothing (seed %d)", seed)
		}
		if xfer > 0 {
			sawXfer = true
		}
	}
	if !sawXfer {
		t.Fatal("pin scenario never corrupted DUO's transferred redundancy in 50 trials")
	}

	iecc := NewIECC(org)
	for seed := int64(0); seed < 50; seed++ {
		if _, onDie, _ := diffPops(t, iecc, pin, seed); onDie != 0 {
			t.Fatalf("pin scenario reached IECC's on-die check bits (seed %d)", seed)
		}
	}

	sawOnDie := false
	inherent := faults.MustScenario("inherent:ber=0.05")
	for seed := int64(0); seed < 20; seed++ {
		if _, onDie, _ := diffPops(t, iecc, inherent, seed); onDie > 0 {
			sawOnDie = true
			break
		}
	}
	if !sawOnDie {
		t.Fatal("inherent scenario never reached the on-die region")
	}
}

// TestScenarioInjectorChipkillSpansAllImages: the chipkill scenario must
// be able to land on every chip image the scheme stores — including
// XED's appended parity image, which exists beyond the rank's data
// chips.
func TestScenarioInjectorChipkillSpansAllImages(t *testing.T) {
	org := dram.DDR4x16()
	xed := NewXED(org)
	nChips := len(Encode(xed, make([]byte, org.LineBytes())).Chips)
	if nChips <= org.ChipsPerRank {
		t.Fatalf("XED stores %d chip images; expected an appended parity image", nChips)
	}
	kill := faults.MustScenario("chipkill")
	hit := make([]bool, nChips)
	rng := rand.New(rand.NewSource(9))
	line := make([]byte, org.LineBytes())
	for trial := 0; trial < 200; trial++ {
		rng.Read(line)
		clean := Encode(xed, line)
		dirty := clean.Clone()
		ScenarioInjector(kill)(rng, dirty)
		for c := range dirty.Chips {
			d, cl := dirty.Chips[c], clean.Chips[c]
			if !bytes.Equal(d.Data.Bits, cl.Data.Bits) || !bytes.Equal(d.OnDie.Bits, cl.OnDie.Bits) || !bytes.Equal(d.Xfer.Bits, cl.Xfer.Bits) {
				hit[c] = true
			}
		}
	}
	for c, ok := range hit {
		if !ok {
			t.Fatalf("chipkill never landed on chip image %d of %d in 200 trials", c, nChips)
		}
	}
}
