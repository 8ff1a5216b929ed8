// The scheme scratch pool is a sync.Pool, and the race detector randomly
// drops Pool.Put items, so the zero-allocation guarantee only holds in
// normal builds.
//go:build !race

package core

import (
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
)

// TestPairBufferedAllocs pins PAIR's width-1 EncodeBatchInto +
// DecodeBatchInto at zero allocations per trial.
func TestPairBufferedAllocs(t *testing.T) {
	s := MustNew(dram.DDR4x16(), DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	line := randLine(rng, s.Org().LineBytes())
	lines, sts := [][]byte{line}, []*ecc.Stored{s.NewStored()}
	dst, claims := [][]byte{make([]byte, len(line))}, make([]ecc.Claim, 1)
	s.EncodeBatchInto(sts, lines) // warm the scratch pool
	s.DecodeBatchInto(dst, sts, claims)
	if n := testing.AllocsPerRun(200, func() {
		s.EncodeBatchInto(sts, lines)
		sts[0].Chips[0].Flip(5) // one weak cell: a dirty chip to correct
		s.DecodeBatchInto(dst, sts, claims)
	}); n != 0 {
		t.Fatalf("EncodeBatchInto+DecodeBatchInto allocated %.1f/op, want 0", n)
	}
}
