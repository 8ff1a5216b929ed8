package core

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

func randLine(rng *rand.Rand, n int) []byte {
	line := make([]byte, n)
	rng.Read(line)
	return line
}

func TestNewValidation(t *testing.T) {
	org := dram.DDR4x16()
	if _, err := New(org, Config{BaseParity: 0, Expansion: 2}); err == nil {
		t.Fatal("base parity 0 accepted")
	}
	if _, err := New(org, Config{BaseParity: 2, Expansion: -1}); err == nil {
		t.Fatal("negative expansion accepted")
	}
	bl16 := org
	bl16.BurstLen = 16
	if _, err := New(bl16, DefaultConfig()); err != nil {
		t.Fatalf("BL16 rejected (two symbols per pin should work): %v", err)
	}
	bad := org
	bad.Pins = 5
	if _, err := New(bad, DefaultConfig()); err == nil {
		t.Fatal("invalid organization accepted")
	}
}

func TestShapes(t *testing.T) {
	org := dram.DDR4x16()
	s := MustNew(org, DefaultConfig())
	if s.CodewordLength() != 20 || s.T() != 2 {
		t.Fatalf("default PAIR = (%d,16) t=%d, want (20,16) t=2", s.CodewordLength(), s.T())
	}
	if s.Name() != "pair" {
		t.Fatalf("name %q", s.Name())
	}
	b := MustNew(org, BaseConfig())
	if b.CodewordLength() != 18 || b.T() != 1 {
		t.Fatalf("base PAIR = (%d,16) t=%d, want (18,16) t=1", b.CodewordLength(), b.T())
	}
	if b.Name() != "pair-base" {
		t.Fatalf("name %q", b.Name())
	}
	if got := s.StorageOverhead(); got != 32.0/128.0 {
		t.Fatalf("default overhead %v", got)
	}
	if got := b.StorageOverhead(); got != 16.0/128.0 {
		t.Fatalf("base overhead %v", got)
	}
}

func TestCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{DefaultConfig(), BaseConfig(), {BaseParity: 2, Expansion: 4}} {
		s := MustNew(dram.DDR4x16(), cfg)
		for trial := 0; trial < 20; trial++ {
			line := randLine(rng, 64)
			decoded, claim := ecc.Decode(s, ecc.Encode(s, line))
			if claim != ecc.ClaimClean || !bytes.Equal(decoded, line) {
				t.Fatalf("expansion=%d: clean round trip failed (%v)", cfg.Expansion, claim)
			}
		}
	}
}

func TestPinFaultAlwaysCorrected(t *testing.T) {
	// The headline property: a whole-pin fault is one pin-aligned symbol,
	// so even the base t=1 configuration corrects every pin fault.
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range []Config{BaseConfig(), DefaultConfig()} {
		s := MustNew(dram.DDR4x16(), cfg)
		for trial := 0; trial < 400; trial++ {
			line := randLine(rng, 64)
			st := ecc.Encode(s, line)
			ecc.InjectAccessFault(rng, st, faults.PermanentPin, -1)
			decoded, claim := ecc.Decode(s, st)
			if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE {
				t.Fatalf("expansion=%d: pin fault -> %v", cfg.Expansion, out)
			}
		}
	}
}

func TestPinBurstAlwaysCorrected(t *testing.T) {
	// Burst errors along a pin of any length stay in one symbol.
	rng := rand.New(rand.NewSource(3))
	s := MustNew(dram.DDR4x16(), BaseConfig())
	for b := 1; b <= 8; b++ {
		for trial := 0; trial < 100; trial++ {
			line := randLine(rng, 64)
			st := ecc.Encode(s, line)
			chip := rng.Intn(4)
			faults.InjectPinBurst(rng, st.Chips[chip].Data, b)
			decoded, claim := ecc.Decode(s, st)
			if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE {
				t.Fatalf("burst length %d -> %v", b, out)
			}
		}
	}
}

func TestSingleCellCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := MustNew(dram.DDR4x16(), BaseConfig())
	for trial := 0; trial < 300; trial++ {
		line := randLine(rng, 64)
		st := ecc.Encode(s, line)
		ecc.InjectAccessFault(rng, st, faults.PermanentCell, -1)
		decoded, claim := ecc.Decode(s, st)
		if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE {
			t.Fatalf("single cell -> %v", out)
		}
	}
}

func TestTwoSymbolErrorsNeedExpansion(t *testing.T) {
	// Two corrupted pins in one chip: base (t=1) fails, expanded (t=2)
	// corrects — the expandability payoff.
	rng := rand.New(rand.NewSource(5))
	base := MustNew(dram.DDR4x16(), BaseConfig())
	full := MustNew(dram.DDR4x16(), DefaultConfig())
	baseFailed, fullOK := 0, 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)

		stB := ecc.Encode(base, line)
		stF := ecc.Encode(full, line)
		chip := rng.Intn(4)
		pins := rng.Perm(16)[:2]
		for _, p := range pins {
			v := byte(1 + rng.Intn(255))
			stB.Chips[chip].Data.SetPinSymbolPart(p, 0, stB.Chips[chip].Data.PinSymbolPart(p, 0)^v)
			stF.Chips[chip].Data.SetPinSymbolPart(p, 0, stF.Chips[chip].Data.PinSymbolPart(p, 0)^v)
		}
		if d, c := ecc.Decode(base, stB); ecc.Classify(line, d, c).IsFailure() {
			baseFailed++
		}
		if d, c := ecc.Decode(full, stF); ecc.Classify(line, d, c) == ecc.OutcomeCE {
			fullOK++
		}
	}
	if fullOK != trials {
		t.Fatalf("expanded PAIR corrected only %d/%d double-pin errors", fullOK, trials)
	}
	if baseFailed == 0 {
		t.Fatal("base PAIR corrected all double-pin errors — t=1 model wrong")
	}
}

func TestParityRegionFaultsHandled(t *testing.T) {
	// A fault in the on-die parity region is also just symbol errors.
	rng := rand.New(rand.NewSource(6))
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	for trial := 0; trial < 200; trial++ {
		line := randLine(rng, 64)
		st := ecc.Encode(s, line)
		ci := st.Chips[rng.Intn(4)]
		// Corrupt up to 8 bits of ONE parity symbol.
		sym := rng.Intn(4)
		for _, b := range rng.Perm(8)[:1+rng.Intn(8)] {
			ci.OnDie.Flip(sym*8+b, 0)
		}
		decoded, claim := ecc.Decode(s, st)
		if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE {
			t.Fatalf("parity-region fault -> %v", out)
		}
	}
}

func TestRowFaultDetectedNotSilent(t *testing.T) {
	// A row/bank fault garbles the whole access; PAIR cannot correct 16+
	// bad symbols but must almost always flag rather than miscorrect.
	rng := rand.New(rand.NewSource(7))
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	counts := map[ecc.Outcome]int{}
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := ecc.Encode(s, line)
		ecc.InjectAccessFault(rng, st, faults.PermanentRow, 0)
		decoded, claim := ecc.Decode(s, st)
		counts[ecc.Classify(line, decoded, claim)]++
	}
	if counts[ecc.OutcomeDUE] < trials*9/10 {
		t.Fatalf("row faults not reliably detected: %v", counts)
	}
}

func TestExpandStoredPreservesBaseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := MustNew(dram.DDR4x16(), BaseConfig())
	full := MustNew(dram.DDR4x16(), DefaultConfig())
	line := randLine(rng, 64)
	stBase := ecc.Encode(base, line)
	stFull, err := full.ExpandStored(base, stBase)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stFull.Chips {
		// Data unchanged.
		if !bytes.Equal(stFull.Chips[i].Data.Bits, stBase.Chips[i].Data.Bits) {
			t.Fatal("expansion modified data")
		}
		// Base parity bits bit-identical.
		for j := 0; j < 16; j++ {
			if stFull.Chips[i].OnDie.Get(j, 0) != stBase.Chips[i].OnDie.Get(j, 0) {
				t.Fatal("expansion modified base parity")
			}
		}
	}
	// The expanded image must equal a direct full encoding.
	direct := ecc.Encode(full, line)
	for i := range direct.Chips {
		if !bytes.Equal(direct.Chips[i].OnDie.Bits, stFull.Chips[i].OnDie.Bits) {
			t.Fatal("expanded image differs from direct encoding")
		}
	}
	// And decode cleanly with t=2 power.
	st := stFull.Clone()
	pins := rng.Perm(16)[:2]
	for _, p := range pins {
		st.Chips[0].Data.SetPinSymbolPart(p, 0, st.Chips[0].Data.PinSymbolPart(p, 0)^0x3C)
	}
	decoded, claim := ecc.Decode(full, st)
	if out := ecc.Classify(line, decoded, claim); out != ecc.OutcomeCE {
		t.Fatalf("expanded image failed double-error decode: %v", out)
	}
}

func TestExpandStoredValidation(t *testing.T) {
	base := MustNew(dram.DDR4x16(), BaseConfig())
	full := MustNew(dram.DDR4x16(), DefaultConfig())
	otherBase := MustNew(dram.DDR4x16(), Config{BaseParity: 3, Expansion: 0})
	line := make([]byte, 64)
	if _, err := full.ExpandStored(otherBase, ecc.Encode(otherBase, line)); err == nil {
		t.Fatal("mismatched base parity accepted")
	}
	if _, err := full.ExpandStored(full, ecc.Encode(full, line)); err == nil {
		t.Fatal("already-expanded source accepted")
	}
	_ = base
}

func TestCostIsBusNeutral(t *testing.T) {
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	c := s.Cost()
	if c.ExtraReadBeats != 0 || c.ExtraWriteBeats != 0 || c.ExtraWritesPerWrite != 0 {
		t.Fatal("PAIR must not change bus traffic")
	}
	if c.DecodeLatencyNS <= 0 {
		t.Fatal("PAIR decode latency missing")
	}
}

func TestBeatBurstIsPAIRsWeakSpot(t *testing.T) {
	// Crosstalk across many pins in one beat spreads over many symbols:
	// the expanded t=2 code fails once >2 pins flip. Verify the model is
	// honest about this (documented in DESIGN.md as the trade-off).
	rng := rand.New(rand.NewSource(9))
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	fails := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := ecc.Encode(s, line)
		faults.InjectBeatBurst(rng, st.Chips[0].Data, 4)
		decoded, claim := ecc.Decode(s, st)
		if ecc.Classify(line, decoded, claim).IsFailure() {
			fails++
		}
	}
	if fails != trials {
		t.Fatalf("4-pin beat burst failed only %d/%d — t=2 cannot correct 4 symbols", fails, trials)
	}
}
