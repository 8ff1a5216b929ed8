// The scheme scratch pools are sync.Pools, and the race detector randomly
// drops Pool.Put items, so the zero-allocation guarantee only holds in
// normal builds.
//go:build !race

package ecc

import (
	"math/rand"
	"testing"

	"pair/internal/faults"
)

// TestBufferedSchemeAllocs pins a width-1 EncodeBatchInto +
// DecodeBatchInto at zero allocations per trial for every scheme.
func TestBufferedSchemeAllocs(t *testing.T) {
	for _, s := range pooledSchemesUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			line := randLine(rng, s.Org().LineBytes())
			lines, sts := [][]byte{line}, []*Stored{s.NewStored()}
			dst, claims := [][]byte{make([]byte, len(line))}, make([]Claim, 1)
			s.EncodeBatchInto(sts, lines) // warm the scratch pools
			s.DecodeBatchInto(dst, sts, claims)
			if n := testing.AllocsPerRun(200, func() {
				s.EncodeBatchInto(sts, lines)
				s.DecodeBatchInto(dst, sts, claims)
			}); n != 0 {
				t.Fatalf("EncodeBatchInto+DecodeBatchInto allocated %.1f/op, want 0", n)
			}
		})
	}
}

// TestInjectorAllocs pins the per-trial injectors of the BER sweep and
// the scenario campaigns at zero allocations on a reused image.
func TestInjectorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range pooledSchemesUnderTest() {
		st := s.NewStored()
		if n := testing.AllocsPerRun(200, func() { FlipRandomStoredBits(rng, st, 12) }); n != 0 {
			t.Fatalf("%s: FlipRandomStoredBits(k=12) allocated %.1f/op, want 0", s.Name(), n)
		}
		pin := ScenarioInjector(faults.MustScenario("pin"))
		if n := testing.AllocsPerRun(200, func() { pin(rng, st) }); n != 0 {
			t.Fatalf("%s: pin ScenarioInjector allocated %.1f/op, want 0", s.Name(), n)
		}
	}
}
