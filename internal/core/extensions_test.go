package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

// --- DDR5 BL16: two pin-aligned symbols per pin ------------------------

func TestDDR5Shapes(t *testing.T) {
	org := dram.DDR5x16()
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	if org.LineBytes() != 64 {
		t.Fatalf("DDR5 line bytes %d", org.LineBytes())
	}
	s := MustNew(org, DefaultConfig())
	// 16 pins x 2 symbols = 32 data symbols -> RS(36,32), t=2.
	if s.CodewordLength() != 36 || s.T() != 2 {
		t.Fatalf("DDR5 PAIR = RS(%d,32) t=%d, want RS(36,32) t=2", s.CodewordLength(), s.T())
	}
	if got := s.StorageOverhead(); got != 32.0/256.0 {
		t.Fatalf("DDR5 overhead %v", got)
	}
}

func TestDDR5CleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := MustNew(dram.DDR5x16(), DefaultConfig())
	for trial := 0; trial < 20; trial++ {
		line := make([]byte, 64)
		rng.Read(line)
		decoded, claim := ecc.Decode(s, ecc.Encode(s, line))
		if claim != ecc.ClaimClean || !bytes.Equal(decoded, line) {
			t.Fatal("DDR5 clean round trip failed")
		}
	}
}

func TestDDR5PinFaultIsTwoSymbols(t *testing.T) {
	// On BL16 a dead pin spans two symbols — exactly why the default
	// configuration carries t=2. The base t=1 config must fail multi-part
	// pin faults; the expanded one must always correct them.
	rng := rand.New(rand.NewSource(2))
	org := dram.DDR5x16()
	base := MustNew(org, BaseConfig())
	full := MustNew(org, DefaultConfig())
	baseFails, fullOK := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		line := make([]byte, 64)
		rng.Read(line)
		stB := ecc.Encode(base, line)
		stF := ecc.Encode(full, line)
		chip := rng.Intn(org.ChipsPerRank)
		pin := rng.Intn(org.Pins)
		// Corrupt both halves of the pin's burst.
		for _, part := range []int{0, 1} {
			v := byte(1 + rng.Intn(255))
			stB.Chips[chip].Data.SetPinSymbolPart(pin, part, stB.Chips[chip].Data.PinSymbolPart(pin, part)^v)
			stF.Chips[chip].Data.SetPinSymbolPart(pin, part, stF.Chips[chip].Data.PinSymbolPart(pin, part)^v)
		}
		if d, c := ecc.Decode(base, stB); ecc.Classify(line, d, c).IsFailure() {
			baseFails++
		}
		if d, c := ecc.Decode(full, stF); ecc.Classify(line, d, c) == ecc.OutcomeCE {
			fullOK++
		}
	}
	if fullOK != trials {
		t.Fatalf("expanded DDR5 PAIR corrected only %d/%d pin faults", fullOK, trials)
	}
	if baseFails == 0 {
		t.Fatal("base t=1 survived all two-symbol pin faults — implausible")
	}
}

// --- Pin sparing: erasure decoding of known-bad pins -------------------

func TestPinSymbolPartRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := dram.NewRegion(16, 16)
	want := make([][2]byte, 16)
	for p := 0; p < 16; p++ {
		want[p] = [2]byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		b.SetPinSymbolPart(p, 0, want[p][0])
		b.SetPinSymbolPart(p, 1, want[p][1])
	}
	for p := 0; p < 16; p++ {
		if b.PinSymbolPart(p, 0) != want[p][0] || b.PinSymbolPart(p, 1) != want[p][1] {
			t.Fatalf("pin %d parts mismatch", p)
		}
	}
}

func TestExpandStoredRejectsForeignImage(t *testing.T) {
	// An IECC image carries 8 on-die bits where a base PAIR image carries
	// 16: the shape mismatch is an error, not an index panic.
	org := dram.DDR4x16()
	base, full := MustNew(org, BaseConfig()), MustNew(org, DefaultConfig())
	st := ecc.Encode(ecc.NewIECC(org), make([]byte, org.LineBytes()))
	_, err := full.ExpandStored(base, st)
	if err == nil || !strings.Contains(err.Error(), "chip 0 is shaped") {
		t.Fatalf("expanding an IECC image: err = %v", err)
	}
}

func TestWithSparedPinsValidation(t *testing.T) {
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	if _, err := s.WithSparedPins(map[int][]int{9: {0}}); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
	if _, err := s.WithSparedPins(map[int][]int{0: {16}}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	// A repeated pin names one physical pin: rejected, not counted twice.
	if _, err := s.WithSparedPins(map[int][]int{0: {3, 3}}); err == nil || !strings.Contains(err.Error(), "pin 3") {
		t.Fatalf("repeated spared pin: error %v, want one naming pin 3", err)
	}
	// 5 spared pins on one chip exceed the 4-symbol parity budget.
	if _, err := s.WithSparedPins(map[int][]int{0: {0, 1, 2, 3, 4}}); err == nil {
		t.Fatal("over-budget sparing accepted")
	}
	sp, err := s.WithSparedPins(map[int][]int{1: {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if sp.SparedPins() != 2 || sp.Name() != "pair-spared" {
		t.Fatalf("spared scheme wrong: %d pins, %q", sp.SparedPins(), sp.Name())
	}
}

func TestSparingRaisesEffectiveCapability(t *testing.T) {
	// Two dead pins + one fresh cell error in the same chip access: three
	// bad symbols. Plain RS(20,16) t=2 must fail; with the two dead pins
	// spared (erased) the budget is 2*1+2 = 4 <= 4 and the access decodes.
	rng := rand.New(rand.NewSource(4))
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	spared, err := s.WithSparedPins(map[int][]int{0: {2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	plainFails, sparedOK := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		line := make([]byte, 64)
		rng.Read(line)
		st := ecc.Encode(s, line)
		ci := st.Chips[0]
		// The two dead pins return garbage...
		ci.Data.SetPinSymbolPart(2, 0, ci.Data.PinSymbolPart(2, 0)^byte(1+rng.Intn(255)))
		ci.Data.SetPinSymbolPart(9, 0, ci.Data.PinSymbolPart(9, 0)^byte(1+rng.Intn(255)))
		// ...plus a fresh weak cell on a third pin.
		third := 5
		ci.Data.Flip(third, rng.Intn(8))

		if d, c := ecc.Decode(s, st.Clone()); ecc.Classify(line, d, c).IsFailure() {
			plainFails++
		}
		if d, c := ecc.Decode(spared, st); ecc.Classify(line, d, c) == ecc.OutcomeCE {
			sparedOK++
		}
	}
	if sparedOK != trials {
		t.Fatalf("spared decode corrected only %d/%d", sparedOK, trials)
	}
	if plainFails < trials*9/10 {
		t.Fatalf("plain decode failed only %d/%d three-symbol patterns", plainFails, trials)
	}
}

func TestSparingCleanDeviceUnaffected(t *testing.T) {
	// Sparing healthy pins must not hurt a clean or lightly-erring device.
	rng := rand.New(rand.NewSource(5))
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	spared, _ := s.WithSparedPins(map[int][]int{2: {11}})
	for trial := 0; trial < 100; trial++ {
		line := make([]byte, 64)
		rng.Read(line)
		st := ecc.Encode(s, line)
		ecc.InjectAccessFault(rng, st, faults.PermanentCell, -1)
		decoded, claim := ecc.Decode(spared, st)
		if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE && out != ecc.OutcomeOK {
			t.Fatalf("spared healthy decode -> %v", out)
		}
	}
}

func TestSparedSchemeSharesEncoder(t *testing.T) {
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	spared, _ := s.WithSparedPins(map[int][]int{0: {1}})
	line := make([]byte, 64)
	a := ecc.Encode(s, line)
	b := ecc.Encode(spared, line)
	for i := range a.Chips {
		if !bytes.Equal(a.Chips[i].OnDie.Bits, b.Chips[i].OnDie.Bits) {
			t.Fatal("sparing changed the stored image")
		}
	}
}
