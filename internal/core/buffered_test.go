package core

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

func pairStoredEqual(a, b *ecc.Stored) bool {
	if ecc.CheckShape(a, b) != nil {
		return false
	}
	for i := range a.Chips {
		rb := b.Chips[i].Regions()
		for j, r := range a.Chips[i].Regions() {
			if !bytes.Equal(r.Bits, rb[j].Bits) {
				return false
			}
		}
	}
	return true
}

// corruptBoth applies the identical corruption to both images by replaying
// the same RNG stream.
func corruptBoth(seed int64, mode int, a, b *ecc.Stored) {
	apply := func(rng *rand.Rand, st *ecc.Stored) {
		switch mode % 4 {
		case 0:
			ecc.FlipRandomStoredBits(rng, st, rng.Intn(7))
		case 1:
			ecc.InjectAccessFault(rng, st, faults.PermanentPin, -1)
		case 2:
			chip := rng.Intn(len(st.Chips))
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
		case 3:
			ecc.FlipRandomStoredBits(rng, st, 20+rng.Intn(20))
		}
	}
	apply(rand.New(rand.NewSource(seed)), a)
	apply(rand.New(rand.NewSource(seed)), b)
}

// TestPairBufferedDifferential checks PAIR (expanded, base-only, and
// spared variants) with an image and a line reused dirty across trials
// against the allocating Encode/Decode helpers on fresh buffers.
func TestPairBufferedDifferential(t *testing.T) {
	org := dram.DDR4x16()
	full := MustNew(org, DefaultConfig())
	spared, err := full.WithSparedPins(map[int][]int{0: {3}, 2: {7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ecc.Scheme{full, MustNew(org, BaseConfig()), spared} {
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			st := s.NewStored()
			dst := make([]byte, s.Org().LineBytes())
			claims := make([]ecc.Claim, 1)
			for trial := 0; trial < 300; trial++ {
				line := randLine(rng, s.Org().LineBytes())
				ref := ecc.Encode(s, line)
				s.EncodeBatchInto([]*ecc.Stored{st}, [][]byte{line})
				if !pairStoredEqual(ref, st) {
					t.Fatalf("trial %d: reused image differs from a fresh encode", trial)
				}
				corruptBoth(rng.Int63(), trial, ref, st)
				refLine, refClaim := ecc.Decode(s, ref)
				s.DecodeBatchInto([][]byte{dst}, []*ecc.Stored{st}, claims)
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
