package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

// schemesUnderTest returns every baseline scheme in this package.
func schemesUnderTest() []Scheme {
	return []Scheme{
		NewNone(dram.DDR4x16()),
		NewIECC(dram.DDR4x16()),
		NewXED(dram.DDR4x16()),
		NewDUO(dram.DDR4x16()),
		NewSECDED(dram.DDR4x8ECC()),
	}
}

func randLine(rng *rand.Rand, n int) []byte {
	line := make([]byte, n)
	rng.Read(line)
	return line
}

func TestClaimAndOutcomeStrings(t *testing.T) {
	for _, c := range []Claim{ClaimClean, ClaimCorrected, ClaimDetected, Claim(9)} {
		if c.String() == "" {
			t.Fatal("empty claim string")
		}
	}
	for _, o := range []Outcome{OutcomeOK, OutcomeCE, OutcomeDUE, OutcomeSDC, Outcome(9)} {
		if o.String() == "" {
			t.Fatal("empty outcome string")
		}
	}
}

func TestClassify(t *testing.T) {
	g := []byte{1, 2, 3}
	same := []byte{1, 2, 3}
	diff := []byte{1, 2, 4}
	cases := []struct {
		decoded []byte
		claim   Claim
		want    Outcome
	}{
		{same, ClaimClean, OutcomeOK},
		{same, ClaimCorrected, OutcomeCE},
		{diff, ClaimClean, OutcomeSDC},
		{diff, ClaimCorrected, OutcomeSDC},
		{same, ClaimDetected, OutcomeDUE},
		{diff, ClaimDetected, OutcomeDUE},
	}
	for i, c := range cases {
		if got := Classify(g, c.decoded, c.claim); got != c.want {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
	}
	if !OutcomeDUE.IsFailure() || !OutcomeSDC.IsFailure() || OutcomeOK.IsFailure() || OutcomeCE.IsFailure() {
		t.Fatal("IsFailure misclassifies")
	}
}

func TestAllSchemesCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range schemesUnderTest() {
		for trial := 0; trial < 20; trial++ {
			line := randLine(rng, s.Org().LineBytes())
			decoded, claim := Decode(s, Encode(s, line))
			if claim != ClaimClean {
				t.Fatalf("%s: clean image claimed %v", s.Name(), claim)
			}
			if !bytes.Equal(decoded, line) {
				t.Fatalf("%s: clean round trip corrupted data", s.Name())
			}
		}
	}
}

func TestAllSchemesStoredCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range schemesUnderTest() {
		line := randLine(rng, s.Org().LineBytes())
		st := Encode(s, line)
		cl := st.Clone()
		InjectAccessFault(rng, cl, faults.PermanentWord, 0)
		decoded, claim := Decode(s, st)
		if claim != ClaimClean || !bytes.Equal(decoded, line) {
			t.Fatalf("%s: corrupting a clone affected the original", s.Name())
		}
	}
}

// TestStoredZeroClearsEveryRegion checks that Zero leaves no bit of a
// corrupted image set, in any region of any chip.
func TestStoredZeroClearsEveryRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range pooledSchemesUnderTest() {
		st := Encode(s, randLine(rng, s.Org().LineBytes()))
		InjectAccessFault(rng, st, faults.PermanentWord, 0)
		st.Zero()
		for i := range st.Chips {
			for r, reg := range st.Chips[i].Regions() {
				if n := reg.PopCount(); n != 0 {
					t.Fatalf("%s: chip %d region %d keeps %d set bits after Zero", s.Name(), i, r, n)
				}
			}
		}
	}
}

func TestSingleCellCorrectedByAllCorrectingSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range schemesUnderTest() {
		if s.Name() == "none" {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			line := randLine(rng, s.Org().LineBytes())
			st := Encode(s, line)
			InjectAccessFault(rng, st, faults.PermanentCell, -1)
			decoded, claim := Decode(s, st)
			out := Classify(line, decoded, claim)
			if out != OutcomeCE && out != OutcomeOK {
				t.Fatalf("%s: single cell -> %v (claim %v)", s.Name(), out, claim)
			}
		}
	}
}

func TestNoneSchemePassesErrorsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewNone(dram.DDR4x16())
	line := randLine(rng, 64)
	st := Encode(s, line)
	InjectAccessFault(rng, st, faults.PermanentCell, -1)
	decoded, claim := Decode(s, st)
	if Classify(line, decoded, claim) != OutcomeSDC {
		t.Fatal("none scheme must pass corruption as SDC")
	}
	if s.StorageOverhead() != 0 {
		t.Fatal("none scheme has overhead")
	}
}

func TestIECCDoubleCellHazard(t *testing.T) {
	// Two cells in the same chip access: SEC must never return OK-claimed
	// wrong data without activity, but it does miscorrect — the hazard the
	// paper targets. Verify both SDC and DUE occur across trials.
	rng := rand.New(rand.NewSource(5))
	s := NewIECC(dram.DDR4x16())
	counts := map[Outcome]int{}
	for trial := 0; trial < 1500; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		// Two distinct bit flips in chip 0's stored image.
		InjectAccessFault(rng, st, faults.PermanentCell, 0)
		InjectAccessFault(rng, st, faults.PermanentCell, 0)
		decoded, claim := Decode(s, st)
		counts[Classify(line, decoded, claim)]++
	}
	if counts[OutcomeSDC] == 0 {
		t.Fatal("IECC never miscorrected double cells — hazard not modeled")
	}
	if counts[OutcomeDUE] == 0 {
		t.Fatal("IECC never detected double cells")
	}
	t.Logf("IECC double-cell outcomes: %v", counts)
}

func TestXEDSingleChipGarbageMostlyCorrected(t *testing.T) {
	// One chip returning garbage: on-die detector flags it (syndrome != 0
	// with prob ~255/256) and XED reconstructs from parity.
	rng := rand.New(rand.NewSource(6))
	s := NewXED(dram.DDR4x16())
	ok := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentWord, 1)
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out == OutcomeCE {
			ok++
		}
	}
	if float64(ok)/trials < 0.95 {
		t.Fatalf("XED reconstructed only %d/%d single-chip garbage accesses", ok, trials)
	}
}

func TestXEDTwoChipErrorsDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewXED(dram.DDR4x16())
	due := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentCell, 0)
		InjectAccessFault(rng, st, faults.PermanentCell, 1)
		_, claim := Decode(s, st)
		if claim == ClaimDetected {
			due++
		}
	}
	// Cell faults may land in the on-die region and still be detected;
	// two flagged chips must be the overwhelmingly common outcome.
	if float64(due)/trials < 0.95 {
		t.Fatalf("XED detected only %d/%d two-chip errors", due, trials)
	}
}

func TestXEDAliasedPatternIsSDC(t *testing.T) {
	// Corrupt chip 0 with a pattern that IS a codeword of the detector:
	// XOR a valid nonzero codeword into (data||ondie). Detection must
	// miss and the read returns wrong data claimed clean.
	rng := rand.New(rand.NewSource(8))
	s := NewXED(dram.DDR4x16())
	line := randLine(rng, 64)
	st := Encode(s, line)

	// Build an aliasing pattern from the detector's own code: encode a
	// random nonzero data pattern.
	alias := dram.NewRegion(16, 8)
	alias.Flip(3, 2)
	alias.Flip(5, 6)
	ck := s.code.CheckBits(alias.Bits)
	ci := st.Chips[0]
	for i, v := range alias.Bits {
		ci.Data.Bits[i] ^= v
	}
	for j := 0; j < s.code.M; j++ {
		if ck&(1<<j) != 0 {
			ci.OnDie.Flip(j, 0)
		}
	}
	decoded, claim := Decode(s, st)
	if Classify(line, decoded, claim) != OutcomeSDC {
		t.Fatalf("aliased pattern gave %v/%v, want SDC", claim, Classify(line, decoded, claim))
	}
}

func TestDUOPinFaultOverwhelmed(t *testing.T) {
	// A pin fault smears across up to 8 beat-aligned symbols: DUO's t=1
	// decoder must fail (DUE or SDC) on virtually all pin faults with >1
	// flipped beat. This is the structural contrast with PAIR.
	rng := rand.New(rand.NewSource(9))
	s := NewDUO(dram.DDR4x16())
	failed, corrected := 0, 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentPin, 0)
		decoded, claim := Decode(s, st)
		switch Classify(line, decoded, claim) {
		case OutcomeCE:
			corrected++ // single-beat flip: one symbol, correctable
		case OutcomeDUE, OutcomeSDC:
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("DUO corrected every pin fault — beat alignment not modeled")
	}
	// P(pin fault flips exactly 1 of 8 beats) = 8/(2^8-1) ~ 3.1%; allow
	// generous slack but the failure rate must dominate.
	if float64(failed)/trials < 0.80 {
		t.Fatalf("DUO failed only %d/%d pin faults", failed, trials)
	}
	t.Logf("DUO pin faults: %d failed, %d corrected (single-beat)", failed, corrected)
}

func TestDUOSingleSymbolErrorsCorrected(t *testing.T) {
	// Errors confined to one beat-aligned byte are DUO's good case.
	rng := rand.New(rand.NewSource(10))
	s := NewDUO(dram.DDR4x16())
	for trial := 0; trial < 300; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		// Flip 1..8 bits of one byte group in one beat of chip 2.
		ci := st.Chips[2]
		beat := rng.Intn(8)
		grp := rng.Intn(2)
		nb := 1 + rng.Intn(8)
		for _, b := range rng.Perm(8)[:nb] {
			ci.Data.Flip(grp*8+b, beat)
		}
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out != OutcomeCE {
			t.Fatalf("DUO single-symbol error -> %v", out)
		}
	}
}

func TestSECDEDBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSECDED(dram.DDR4x8ECC())
	// Single bit per beat codeword: corrected.
	for trial := 0; trial < 100; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		st.Chips[rng.Intn(8)].Data.Flip(rng.Intn(8), rng.Intn(8))
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out != OutcomeCE {
			t.Fatalf("SECDED single bit -> %v", out)
		}
	}
	// Two bits in the same beat across chips: detected.
	for trial := 0; trial < 100; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		beat := rng.Intn(8)
		st.Chips[0].Data.Flip(rng.Intn(8), beat)
		st.Chips[1].Data.Flip(rng.Intn(8), beat)
		_, claim := Decode(s, st)
		if claim != ClaimDetected {
			t.Fatalf("SECDED double bit in one beat -> %v", claim)
		}
	}
}

func TestStorageOverheads(t *testing.T) {
	x16 := dram.DDR4x16()
	if got := NewIECC(x16).StorageOverhead(); got != 8.0/128.0 {
		t.Fatalf("IECC overhead %v", got)
	}
	if got := NewDUO(x16).StorageOverhead(); got != 16.0/128.0 {
		t.Fatalf("DUO overhead %v", got)
	}
	xed := NewXED(x16).StorageOverhead()
	if xed <= 0.25 || xed > 0.35 {
		t.Fatalf("XED overhead %v out of expected band (inline parity + detector)", xed)
	}
	if got := NewSECDED(dram.DDR4x8ECC()).StorageOverhead(); got != 0.125 {
		t.Fatalf("SECDED overhead %v", got)
	}
}

func TestCostShapes(t *testing.T) {
	x16 := dram.DDR4x16()
	if c := NewDUO(x16).Cost(); c.ExtraReadBeats != 1 || c.ExtraWriteBeats != 1 {
		t.Fatal("DUO must extend bursts")
	}
	if c := NewXED(x16).Cost(); c.ExtraWritesPerWrite != 1.0 {
		t.Fatal("XED must write the inline parity image")
	}
	if c := NewNone(x16).Cost(); c != (AccessCost{}) {
		t.Fatal("none scheme must be free")
	}
}

func TestInjectInherentCountsAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewIECC(dram.DDR4x16())
	st := Encode(s, make([]byte, 64))
	if InjectInherent(rng, st, 0) != 0 {
		t.Fatal("BER 0 flipped bits")
	}
	n := InjectInherent(rng, st, 1.0)
	if n != st.TotalBits() {
		t.Fatalf("BER 1 flipped %d of %d bits", n, st.TotalBits())
	}
}

func TestStoredTotalBits(t *testing.T) {
	// IECC on x16: 4 chips x (128 data + 8 on-die) = 544.
	s := NewIECC(dram.DDR4x16())
	if got := Encode(s, make([]byte, 64)).TotalBits(); got != 544 {
		t.Fatalf("IECC stored bits %d, want 544", got)
	}
	// DUO: 4 x (128 + 16 transferred) = 576.
	d := NewDUO(dram.DDR4x16())
	if got := Encode(d, make([]byte, 64)).TotalBits(); got != 576 {
		t.Fatalf("DUO stored bits %d, want 576", got)
	}
}

func TestDUORequiresX16(t *testing.T) {
	// An x8 extension beat holds one of DUO's two parity symbols.
	defer func() {
		if recover() == nil {
			t.Fatal("DUO on x8 did not panic")
		}
	}()
	NewDUO(dram.DDR4x8())
}

// TestBatchLengthMismatchPanics pins the argument contract of the codec
// calls: every scheme rejects batches whose slices disagree in length.
func TestBatchLengthMismatchPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, s := range append(schemesUnderTest(), NewDUORank(dram.DDR4x8ECC())) {
		st := s.NewStored()
		line := make([]byte, s.Org().LineBytes())
		mustPanic(s.Name()+" encode", func() { s.EncodeBatchInto([]*Stored{st}, nil) })
		mustPanic(s.Name()+" decode", func() {
			s.DecodeBatchInto([][]byte{line}, []*Stored{st, st}, make([]Claim, 2))
		})
		mustPanic(s.Name()+" claims", func() {
			s.DecodeBatchInto([][]byte{line}, []*Stored{st}, nil)
		})
	}
}
