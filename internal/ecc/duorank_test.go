package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

func newDUORank() *DUORank { return NewDUORank(dram.DDR4x8ECC()) }

func TestDUORankRequiresECCDIMM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("x16 organization accepted")
		}
	}()
	NewDUORank(dram.DDR4x16())
}

func TestDUORankCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := newDUORank()
	for trial := 0; trial < 30; trial++ {
		line := randLine(rng, 64)
		decoded, claim := Decode(s, Encode(s, line))
		if claim != ClaimClean || !bytes.Equal(decoded, line) {
			t.Fatalf("clean round trip failed: %v", claim)
		}
	}
}

func TestDUORankCorrectsUpTo8Symbols(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newDUORank()
	for nerr := 1; nerr <= 8; nerr++ {
		for trial := 0; trial < 25; trial++ {
			line := randLine(rng, 64)
			st := Encode(s, line)
			// Corrupt nerr distinct random beat-symbols across data chips.
			type pos struct{ c, beat int }
			seen := map[pos]bool{}
			for len(seen) < nerr {
				p := pos{rng.Intn(8), rng.Intn(8)}
				if !seen[p] {
					seen[p] = true
					// An x8 chip's beat symbol is its burst byte.
					st.Chips[p.c].Data.Bits[p.beat] ^= byte(1 + rng.Intn(255))
				}
			}
			decoded, claim := Decode(s, st)
			if out := Classify(line, decoded, claim); out != OutcomeCE {
				t.Fatalf("nerr=%d: outcome %v", nerr, out)
			}
		}
	}
}

func TestDUORankSurvivesWholeChipViaErasureRetry(t *testing.T) {
	// A dead chip is 9 bad symbols — beyond t=8 directly, recovered by
	// the chip-erasure hypothesis pass. This is DUO's chipkill story.
	rng := rand.New(rand.NewSource(3))
	s := newDUORank()
	ce := 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		chip := rng.Intn(9)
		InjectAccessFault(rng, st, faults.PermanentBank, chip)
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out == OutcomeCE {
			ce++
		}
	}
	if float64(ce)/trials < 0.95 {
		t.Fatalf("chipkill recovery only %d/%d", ce, trials)
	}
}

func TestDUORankPinFaultStillBeatAlignedWeakness(t *testing.T) {
	// A pin fault is up to 9 symbols in ONE chip — recoverable by the
	// erasure retry, so duo-rank handles it (unlike commodity duo)...
	rng := rand.New(rand.NewSource(4))
	s := newDUORank()
	ce := 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentPin, rng.Intn(8))
		decoded, claim := Decode(s, st)
		if Classify(line, decoded, claim) == OutcomeCE {
			ce++
		}
	}
	if float64(ce)/trials < 0.95 {
		t.Fatalf("pin fault recovery only %d/%d", ce, trials)
	}
	// ...but a pin fault PLUS one unrelated symbol error in another chip
	// exceeds the erasure budget less often than PAIR's per-chip
	// isolation: inject both and require a nonzero failure rate, the
	// coupling PAIR avoids entirely.
	fails := 0
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentPin, 0)
		// Five extra cell errors in other chips exceed the post-erasure
		// budget floor((17-9)/2) = 4.
		for i := 0; i < 5; i++ {
			InjectAccessFault(rng, st, faults.PermanentCell, 1+rng.Intn(7))
		}
		decoded, claim := Decode(s, st)
		if Classify(line, decoded, claim).IsFailure() {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("pin+5-cell never failed — erasure budget not modeled")
	}
}

func TestDUORankTwoDeadChipsDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newDUORank()
	for trial := 0; trial < 60; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentBank, 0)
		InjectAccessFault(rng, st, faults.PermanentBank, 3)
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out == OutcomeSDC {
			t.Fatal("two dead chips silently miscorrected")
		}
	}
}

func TestDUORankOverheadAndCost(t *testing.T) {
	s := newDUORank()
	// redundancy: 64 (ECC chip beats) + 9*8 (forwarded) = 136 bits per
	// 512 data bits = 26.5625%.
	if got := s.StorageOverhead(); got < 0.26 || got > 0.27 {
		t.Fatalf("overhead %v", got)
	}
	c := s.Cost()
	if c.ExtraReadBeats != 1 || c.ExtraWriteBeats != 1 {
		t.Fatal("burst extension missing")
	}
}

func TestDUORankSingleCellAlwaysCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := newDUORank()
	for trial := 0; trial < 150; trial++ {
		line := randLine(rng, 64)
		st := Encode(s, line)
		InjectAccessFault(rng, st, faults.PermanentCell, -1)
		decoded, claim := Decode(s, st)
		if out := Classify(line, decoded, claim); out != OutcomeCE {
			t.Fatalf("single cell -> %v", out)
		}
	}
}
