package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

// pooledSchemesUnderTest returns every scheme in this package; each
// per-image codec allocates nothing in steady state.
func pooledSchemesUnderTest() []Scheme {
	return []Scheme{
		NewNone(dram.DDR4x16()),
		NewIECC(dram.DDR4x16()),
		NewXED(dram.DDR4x16()),
		NewDUO(dram.DDR4x16()),
		NewDUORank(dram.DDR4x8ECC()),
		NewSECDED(dram.DDR4x8ECC()),
	}
}

// storedEqual reports whether two images have the same shape and bits.
func storedEqual(a, b *Stored) bool {
	return CheckShape(a, b) == nil && bytes.Equal(a.buf, b.buf)
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

// TestBufferedSchemeDifferential checks the ownership contract of the
// codec calls: encoding into an image and decoding into a line that are
// reused (dirty) across trials gives the same image, bytes and claim as
// the allocating Encode/Decode helpers on fresh buffers, across
// randomized fault patterns.
func TestBufferedSchemeDifferential(t *testing.T) {
	for _, s := range append(schemesUnderTest(), NewDUORank(dram.DDR4x8ECC())) {
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			st := s.NewStored()
			dst := make([]byte, s.Org().LineBytes())
			claims := make([]Claim, 1)
			for trial := 0; trial < 300; trial++ {
				line := randLine(rng, s.Org().LineBytes())
				ref := Encode(s, line)
				s.EncodeBatchInto([]*Stored{st}, [][]byte{line})
				if !storedEqual(ref, st) {
					t.Fatalf("trial %d: reused image differs from a fresh encode", trial)
				}
				corruptBoth(rng.Int63(), trial, ref, st)
				if !storedEqual(ref, st) {
					t.Fatalf("trial %d: corruption replay diverged", trial)
				}
				refLine, refClaim := Decode(s, ref)
				s.DecodeBatchInto([][]byte{dst}, []*Stored{st}, claims)
				if claims[0] != refClaim {
					t.Fatalf("trial %d: claim %v, want %v", trial, claims[0], refClaim)
				}
				if !bytes.Equal(dst, refLine) {
					t.Fatalf("trial %d: reused line differs from a fresh decode", trial)
				}
			}
		})
	}
}
