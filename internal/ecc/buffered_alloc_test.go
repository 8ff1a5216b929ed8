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
				sts[0].Chips[0].Flip(5) // one weak cell: a dirty chip to correct
				s.DecodeBatchInto(dst, sts, claims)
			}); n != 0 {
				t.Fatalf("EncodeBatchInto+DecodeBatchInto allocated %.1f/op, want 0", n)
			}
		})
	}
}

// TestInjectorAllocs pins the per-trial injectors of the BER sweep and
// of every builtin scenario at its default options at zero allocations
// on a reused image, together with the image clear that starts each
// trial.
func TestInjectorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range pooledSchemesUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			st := s.NewStored()
			if n := testing.AllocsPerRun(200, func() { st.Zero(); FlipRandomStoredBits(rng, st, 12) }); n != 0 {
				t.Errorf("Zero+FlipRandomStoredBits(k=12) allocated %.1f/op, want 0", n)
			}
			for _, id := range faults.ScenarioIDs() {
				inject := ScenarioInjector(faults.MustScenario(id))
				if n := testing.AllocsPerRun(200, func() { inject(rng, st) }); n != 0 {
					t.Errorf("%s ScenarioInjector allocated %.1f/op, want 0", id, n)
				}
			}
		})
	}
}
