package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

// bufferedSchemesUnderTest returns every BufferedScheme in this package.
func bufferedSchemesUnderTest() []BufferedScheme {
	return []BufferedScheme{
		NewNone(dram.DDR4x16()),
		NewIECC(dram.DDR4x16()),
		NewXED(dram.DDR4x16()),
		NewDUO(dram.DDR4x16()),
	}
}

func chipImagesEqual(a, b *ChipImage) bool {
	if (a.Data == nil) != (b.Data == nil) ||
		(a.OnDie == nil) != (b.OnDie == nil) ||
		(a.Xfer == nil) != (b.Xfer == nil) {
		return false
	}
	if a.Data != nil && !a.Data.Equal(b.Data) {
		return false
	}
	if a.OnDie != nil && !a.OnDie.Equal(b.OnDie) {
		return false
	}
	if a.Xfer != nil && !a.Xfer.Equal(b.Xfer) {
		return false
	}
	return true
}

func storedEqual(a, b *Stored) bool {
	if len(a.Chips) != len(b.Chips) {
		return false
	}
	for i := range a.Chips {
		if !chipImagesEqual(a.Chips[i], b.Chips[i]) {
			return false
		}
	}
	return true
}

// corruptBoth applies the identical corruption to both images by replaying
// the same RNG stream.
func corruptBoth(seed int64, mode int, a, b *Stored) {
	apply := func(rng *rand.Rand, st *Stored) {
		switch mode % 4 {
		case 0:
			FlipRandomStoredBits(rng, st, rng.Intn(7))
		case 1:
			InjectAccessFault(rng, st, faults.PermanentPin, -1)
		case 2:
			chip := rng.Intn(len(st.Chips))
			InjectAccessFault(rng, st, faults.PermanentCell, chip)
			InjectAccessFault(rng, st, faults.PermanentCell, chip)
		case 3:
			// Heavy corruption: exercises the detected/uncorrectable paths.
			FlipRandomStoredBits(rng, st, 20+rng.Intn(20))
		}
	}
	apply(rand.New(rand.NewSource(seed)), a)
	apply(rand.New(rand.NewSource(seed)), b)
}

// TestBufferedSchemeDifferential checks EncodeInto ≡ Encode and
// DecodeInto ≡ Decode across randomized fault patterns, with the buffered
// image and line buffer reused (dirty) across trials — the ownership
// contract of BufferedScheme.
func TestBufferedSchemeDifferential(t *testing.T) {
	for _, s := range bufferedSchemesUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			st := s.NewStored()
			dst := make([]byte, s.Org().LineBytes())
			for trial := 0; trial < 300; trial++ {
				line := randLine(rng, s.Org().LineBytes())
				ref := s.Encode(line)
				s.EncodeInto(st, line)
				if !storedEqual(ref, st) {
					t.Fatalf("trial %d: EncodeInto image differs from Encode", trial)
				}
				corruptBoth(rng.Int63(), trial, ref, st)
				if !storedEqual(ref, st) {
					t.Fatalf("trial %d: corruption replay diverged", trial)
				}
				refLine, refClaim := s.Decode(ref)
				claim := s.DecodeInto(dst, st)
				if claim != refClaim {
					t.Fatalf("trial %d: claim %v, want %v", trial, claim, refClaim)
				}
				if !bytes.Equal(dst, refLine) {
					t.Fatalf("trial %d: DecodeInto line differs from Decode", trial)
				}
			}
		})
	}
}
