package memsim

import (
	"math/rand"
	"testing"
)

// refreshDeferDirect is refreshDefer as one division per call, the form
// it took before the simulator cached the refresh window.
func refreshDeferDirect(p *Profile, x uint64, bankIdx int) uint64 {
	t := p.Timing
	if p.Refresh == RefreshSameBank {
		period := p.RefSlotPeriod()
		nb := uint64(p.NumBanks())
		g := x / period
		if g < uint64(bankIdx) {
			return x
		}
		g -= (g - uint64(bankIdx)) % nb
		if g == 0 {
			return x
		}
		if start := g * period; x < start+uint64(t.TRFCSB) {
			return start + uint64(t.TRFCSB)
		}
		return x
	}
	idx := x / uint64(t.TREFI)
	if idx == 0 {
		return x
	}
	if start := idx * uint64(t.TREFI); x < start+uint64(t.TRFC) {
		return start + uint64(t.TRFC)
	}
	return x
}

// TestRefreshDeferMatchesDirectFormula runs every registered profile in
// each refresh mode it supports and asks the windowed refreshDefer about
// every bank at every cycle of three refresh rotations, in time order as
// the scheduler mostly asks, then at random times far apart, which move
// the window backwards too. Every answer must equal the direct formula.
func TestRefreshDeferMatchesDirectFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, id := range ProfileIDs() {
		for _, spec := range []string{id + ":refresh=all-bank", id + ":refresh=same-bank"} {
			p, err := NewProfile(spec)
			if err != nil {
				continue // the part has no same-bank refresh
			}
			cfg := p.Config()
			s, err := newSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			banks := p.NumBanks()
			check := func(x uint64, bank int) {
				t.Helper()
				if got, want := s.refreshDefer(x, bank), refreshDeferDirect(p, x, bank); got != want {
					t.Fatalf("%s: refreshDefer(%d, bank %d) = %d, direct formula %d", spec, x, bank, got, want)
				}
			}
			rotation := 3 * uint64(p.Timing.TREFI)
			for x := uint64(0); x < rotation; x++ {
				for bank := 0; bank < banks; bank++ {
					check(x, bank)
				}
			}
			for i := 0; i < 20000; i++ {
				check(rng.Uint64()>>uint(rng.Intn(64)), rng.Intn(banks))
			}
		}
	}
}
