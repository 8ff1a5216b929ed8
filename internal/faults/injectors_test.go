package faults

import (
	"math/rand"
	"slices"
	"testing"

	"pair/internal/dram"
)

// TestInjectorFlipCountsExact audits every access-level injector against
// the shared contract: the return value equals the number of bits set in
// a fresh chip access, for every injector, shape and trial. This pins the
// subtle retry-loop invariant of InjectWord/InjectLocalWordline (a
// zero-flip pass leaves mask and count untouched) and the burst
// injectors' clamped lengths. Chip-level injectors run on chips with all
// three regions.
func TestInjectorFlipCountsExact(t *testing.T) {
	shapes := []dram.Shape{{Pins: 16, Beats: 8, OnDie: 32}, {Pins: 16, Beats: 16, Xfer: 1}, {Pins: 8, Beats: 8, OnDie: 7, Xfer: 1}, {Pins: 4, Beats: 8, OnDie: 6}}
	data := func(f func(*rand.Rand, dram.Region) int) func(*rand.Rand, *dram.Chip) int {
		return func(r *rand.Rand, c *dram.Chip) int { return f(r, c.Data) }
	}
	injectors := []struct {
		name   string
		inject func(*rand.Rand, *dram.Chip) int
	}{
		{"InjectInherent(0.1)", func(r *rand.Rand, c *dram.Chip) int { return InjectInherent(r, c, 0.1) }},
		{"InjectNCells(3)", func(r *rand.Rand, c *dram.Chip) int { return InjectNCells(r, c, 3) }},
		{"InjectPin", InjectPin},
		{"InjectLane", data(InjectLane)},
		{"InjectBeat", data(InjectBeat)},
		{"InjectWord", InjectWord},
		{"InjectLocalWordline", data(InjectLocalWordline)},
		{"InjectPinBurst(4)", data(func(r *rand.Rand, m dram.Region) int { return InjectPinBurst(r, m, 4) })},
		{"InjectPinBurst(64)", data(func(r *rand.Rand, m dram.Region) int { return InjectPinBurst(r, m, 64) })},
		{"InjectBeatBurst(2)", data(func(r *rand.Rand, m dram.Region) int { return InjectBeatBurst(r, m, 2) })},
		{"InjectBeatBurst(64)", data(func(r *rand.Rand, m dram.Region) int { return InjectBeatBurst(r, m, 64) })},
	}
	for _, in := range injectors {
		rng := rand.New(rand.NewSource(5))
		for _, sh := range shapes {
			for trial := 0; trial < 500; trial++ {
				chips, _ := dram.NewChips(1, sh)
				c := &chips[0]
				n := in.inject(rng, c)
				if got := c.Data.PopCount() + c.OnDie.PopCount() + c.Xfer.PopCount(); got != n {
					t.Fatalf("%s on %+v trial %d: returned %d, chip has %d bits",
						in.name, sh, trial, n, got)
				}
			}
		}
	}
}

// TestBurstInjectorDegenerateLengths is the regression for the raw-b
// return: non-positive lengths must flip nothing, return 0 and consume
// no randomness (a caller-visible -len value reaches these via the
// faultmap CLI).
func TestBurstInjectorDegenerateLengths(t *testing.T) {
	for _, b := range []int{0, -1, -3} {
		rng := rand.New(rand.NewSource(1))
		before := rng.Int63()
		rng.Seed(1)
		mask := dram.NewRegion(16, 8)
		if n := InjectPinBurst(rng, mask, b); n != 0 || mask.PopCount() != 0 {
			t.Fatalf("InjectPinBurst(b=%d) = %d with %d bits set", b, n, mask.PopCount())
		}
		if n := InjectBeatBurst(rng, mask, b); n != 0 || mask.PopCount() != 0 {
			t.Fatalf("InjectBeatBurst(b=%d) = %d with %d bits set", b, n, mask.PopCount())
		}
		if got := rng.Int63(); got != before {
			t.Fatalf("degenerate burst length b=%d consumed randomness", b)
		}
	}
}

// TestPermPrefixMatchesPerm pins the prefix shuffle behind the cell and
// chipkill scenarios to the rng.Perm it replaced: the same first n
// entries and the same RNG state afterwards, whether the result fits the
// caller's buffer or not, so every later draw of a trial is unchanged.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, total := range []int{1, 2, 3, 4, 9, 16, 17, 136, 160, 256} {
		for _, n := range []int{0, 1, 2, 3, 8, 16, 17, total - 1, total} {
			if n > total {
				continue
			}
			for seed := int64(1); seed <= 5; seed++ {
				want := rand.New(rand.NewSource(seed))
				got := rand.New(rand.NewSource(seed))
				var small [16]int
				prefix := permPrefix(got, total, n, small[:])
				if ref := want.Perm(total)[:n]; !slices.Equal(prefix, ref) {
					t.Fatalf("total=%d n=%d seed=%d: prefix %v, rng.Perm %v", total, n, seed, prefix, ref)
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("total=%d n=%d seed=%d: RNG state diverged from rng.Perm's", total, n, seed)
				}
			}
		}
	}
}

// TestInjectorSpatialFootprints pins each injector's spatial signature
// on a 16x8 access: the axes it may spread along and the regions of the
// grid it must stay inside.
func TestInjectorSpatialFootprints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		pinChip := dram.Chip{Data: dram.NewRegion(16, 8)}
		InjectPin(rng, &pinChip)
		assertPinsSpanned(t, "InjectPin", pinChip.Data, 1)

		laneMask := dram.NewRegion(16, 8)
		InjectLane(rng, laneMask)
		if laneMask.PopCount() != 1 {
			t.Fatal("InjectLane must flip exactly one bit")
		}

		beatMask := dram.NewRegion(16, 8)
		InjectBeat(rng, beatMask)
		assertBeatsSpanned(t, "InjectBeat", beatMask, 1)

		lwlMask := dram.NewRegion(16, 8)
		InjectLocalWordline(rng, lwlMask)
		assertPinsSpanned(t, "InjectLocalWordline", lwlMask, MatPins)

		pbMask := dram.NewRegion(16, 8)
		InjectPinBurst(rng, pbMask, 4)
		assertPinsSpanned(t, "InjectPinBurst", pbMask, 1)

		bbMask := dram.NewRegion(16, 8)
		InjectBeatBurst(rng, bbMask, 4)
		assertBeatsSpanned(t, "InjectBeatBurst", bbMask, 1)
	}
}

// assertPinsSpanned fails when the mask's flips span more than width
// adjacent pins.
func assertPinsSpanned(t *testing.T, name string, m dram.Region, width int) {
	t.Helper()
	first, last := -1, -1
	for pin := 0; pin < m.Pins; pin++ {
		for beat := 0; beat < m.Beats; beat++ {
			if m.Get(pin, beat) {
				if first == -1 {
					first = pin
				}
				last = pin
				break
			}
		}
	}
	if first == -1 {
		t.Fatalf("%s flipped nothing", name)
	}
	if last-first+1 > width {
		t.Fatalf("%s spans %d pins, want <= %d", name, last-first+1, width)
	}
}

// assertBeatsSpanned fails when the mask's flips span more than width
// beats.
func assertBeatsSpanned(t *testing.T, name string, m dram.Region, width int) {
	t.Helper()
	first, last := -1, -1
	for beat := 0; beat < m.Beats; beat++ {
		for pin := 0; pin < m.Pins; pin++ {
			if m.Get(pin, beat) {
				if first == -1 {
					first = beat
				}
				last = beat
				break
			}
		}
	}
	if first == -1 {
		t.Fatalf("%s flipped nothing", name)
	}
	if last-first+1 > width {
		t.Fatalf("%s spans %d beats, want <= %d", name, last-first+1, width)
	}
}
