package core

import (
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

func TestPAIRCorrectsLocalWordlineFaults(t *testing.T) {
	// A mat-local wordline fault spans MatPins=2 adjacent pins = exactly
	// two pin-aligned symbols: the expanded t=2 PAIR corrects every one,
	// where IECC's bit-granularity SEC collapses.
	rng := rand.New(rand.NewSource(1))
	pairS := MustNew(dram.DDR4x16(), DefaultConfig())
	iecc := ecc.NewIECC(dram.DDR4x16())
	pairOK, ieccFail := 0, 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		line := randLine(rng, 64)

		st := ecc.Encode(pairS, line)
		ecc.InjectAccessFault(rng, st, faults.PermanentLocalWordline, 0)
		if d, c := ecc.Decode(pairS, st); ecc.Classify(line, d, c) == ecc.OutcomeCE {
			pairOK++
		}

		st = ecc.Encode(iecc, line)
		ecc.InjectAccessFault(rng, st, faults.PermanentLocalWordline, 0)
		if d, c := ecc.Decode(iecc, st); ecc.Classify(line, d, c).IsFailure() {
			ieccFail++
		}
	}
	if pairOK != trials {
		t.Fatalf("PAIR corrected only %d/%d local wordline faults", pairOK, trials)
	}
	if float64(ieccFail)/trials < 0.8 {
		t.Fatalf("IECC failed only %d/%d — fault too mild", ieccFail, trials)
	}
}
