package faults

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
)

// testRank builds a 4-chip rank access shaped like the commodity x16
// schemes' storage images: a 16x8 data burst per chip plus an 8-bit
// on-die region and a 16x1 transferred-redundancy burst, so scenarios
// exercise all three regions.
func testRank() []dram.Chip {
	chips, _ := dram.NewChips(4, dram.Shape{Pins: 16, Beats: 8, OnDie: 8, Xfer: 1})
	return chips
}

func rankPopCount(access []dram.Chip) int {
	n := 0
	for _, a := range access {
		n += a.Data.PopCount() + a.OnDie.PopCount() + a.Xfer.PopCount()
	}
	return n
}

func chipsTouched(access []dram.Chip) int {
	n := 0
	for i := range access {
		a := access[i]
		if a.Data.PopCount() > 0 || a.OnDie.PopCount() > 0 || a.Xfer.PopCount() > 0 {
			n++
		}
	}
	return n
}

// TestScenarioDeterminism: equal (spec, seed) must produce identical
// corruption across independently built scenario instances — the
// contract that makes campaign results reproducible per fault layer.
func TestScenarioDeterminism(t *testing.T) {
	for _, id := range ScenarioIDs() {
		a1, a2 := testRank(), testRank()
		s1, s2 := MustScenario(id), MustScenario(id)
		r1, r2 := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
		for trial := 0; trial < 50; trial++ {
			n1 := s1.Inject(r1, a1)
			n2 := s2.Inject(r2, a2)
			if n1 != n2 {
				t.Fatalf("%s trial %d: flip counts %d != %d", id, trial, n1, n2)
			}
		}
		for c := range a1 {
			if !bytes.Equal(a1[c].Data.Bits, a2[c].Data.Bits) || !bytes.Equal(a1[c].OnDie.Bits, a2[c].OnDie.Bits) || !bytes.Equal(a1[c].Xfer.Bits, a2[c].Xfer.Bits) {
				t.Fatalf("%s: corruption diverged on chip %d", id, c)
			}
		}
	}
}

// TestScenarioFlipCounts: on a fresh rank, each scenario's return value
// must equal the population count of the corruption it left behind.
// Retention may in principle overlap two clusters (XOR cancellation), so
// it asserts >=; everything else is exact by construction.
func TestScenarioFlipCounts(t *testing.T) {
	for _, id := range ScenarioIDs() {
		sc := MustScenario(id)
		rng := rand.New(rand.NewSource(7))
		exact := id != "retention"
		for trial := 0; trial < 200; trial++ {
			access := testRank()
			n := sc.Inject(rng, access)
			pop := rankPopCount(access)
			if n < 0 {
				t.Fatalf("%s trial %d: negative flip count %d", id, trial, n)
			}
			if exact && pop != n {
				t.Fatalf("%s trial %d: returned %d flips but popcount is %d", id, trial, n, pop)
			}
			if !exact && pop > n {
				t.Fatalf("%s trial %d: popcount %d exceeds reported %d", id, trial, pop, n)
			}
		}
	}
}

// TestScenarioSpatialSignatures pins each builtin scenario's physical
// footprint: which regions it may touch, how many chips, and the shape
// of the corruption inside a chip.
func TestScenarioSpatialSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	t.Run("pin", func(t *testing.T) {
		sc := MustScenario("pin")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			sc.Inject(rng, access)
			if got := chipsTouched(access); got != 1 {
				t.Fatalf("pin touched %d chips", got)
			}
			for i := range access {
				a := access[i]
				if a.OnDie.PopCount() != 0 {
					t.Fatal("pin fault reached the on-die region")
				}
				pins := map[int]bool{}
				for pin := 0; pin < 16; pin++ {
					for beat := 0; beat < 8; beat++ {
						if a.Data.Get(pin, beat) {
							pins[pin] = true
						}
					}
					if a.Xfer.Get(pin, 0) {
						pins[pin] = true
					}
				}
				if len(pins) > 1 {
					t.Fatalf("pin fault spread over %d pins", len(pins))
				}
			}
		}
	})

	t.Run("pinburst", func(t *testing.T) {
		sc := MustScenario("pinburst:b=4")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			if n := sc.Inject(rng, access); n != 4 {
				t.Fatalf("pinburst:b=4 flipped %d bits", n)
			}
			for i := range access {
				a := access[i]
				if a.Data.PopCount() == 0 {
					continue
				}
				// All flips on one pin, on consecutive beats.
				var pin = -1
				first, last := -1, -1
				for p := 0; p < 16; p++ {
					for beat := 0; beat < 8; beat++ {
						if !a.Data.Get(p, beat) {
							continue
						}
						if pin == -1 {
							pin = p
						}
						if p != pin {
							t.Fatal("pinburst spread across pins")
						}
						if first == -1 {
							first = beat
						}
						last = beat
					}
				}
				if last-first != 3 {
					t.Fatalf("pinburst beats not contiguous: first %d last %d", first, last)
				}
			}
		}
	})

	t.Run("beatburst", func(t *testing.T) {
		sc := MustScenario("beatburst:b=8")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			if n := sc.Inject(rng, access); n != 8 {
				t.Fatalf("beatburst:b=8 flipped %d bits", n)
			}
			for i := range access {
				a := access[i]
				if a.Data.PopCount() == 0 {
					continue
				}
				beats := map[int]int{}
				first, last := 16, -1
				for p := 0; p < 16; p++ {
					for beat := 0; beat < 8; beat++ {
						if a.Data.Get(p, beat) {
							beats[beat]++
							if p < first {
								first = p
							}
							if p > last {
								last = p
							}
						}
					}
				}
				if len(beats) != 1 {
					t.Fatalf("beatburst spread across %d beats", len(beats))
				}
				if last-first != 7 {
					t.Fatalf("beatburst pins not contiguous: first %d last %d", first, last)
				}
			}
		}
	})

	t.Run("chipkill", func(t *testing.T) {
		sc := MustScenario("chipkill:chips=2")
		for trial := 0; trial < 50; trial++ {
			access := testRank()
			sc.Inject(rng, access)
			if got := chipsTouched(access); got != 2 {
				t.Fatalf("chipkill:chips=2 touched %d chips", got)
			}
		}
		// Clamped to the rank size when chips exceeds it.
		access := testRank()
		MustScenario("chipkill:chips=9").Inject(rng, access)
		if got := chipsTouched(access); got != 4 {
			t.Fatalf("chipkill:chips=9 on a 4-chip rank touched %d chips", got)
		}
	})

	t.Run("rowhammer", func(t *testing.T) {
		sc := MustScenario("rowhammer:radius=1")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			if n := sc.Inject(rng, access); n == 0 {
				t.Fatal("rowhammer flipped nothing")
			}
			for i := range access {
				a := access[i]
				if a.OnDie.PopCount() != 0 || a.Xfer.PopCount() != 0 {
					t.Fatal("rowhammer left the data array")
				}
				var pins []int
				for p := 0; p < 16; p++ {
					for beat := 0; beat < 8; beat++ {
						if a.Data.Get(p, beat) {
							pins = append(pins, p)
							break
						}
					}
				}
				if len(pins) > 0 && pins[len(pins)-1]-pins[0] > 2 {
					t.Fatalf("rowhammer radius=1 spans pins %v", pins)
				}
			}
		}
	})

	t.Run("vrt", func(t *testing.T) {
		always := MustScenario("vrt:flicker=1")
		never := MustScenario("vrt:flicker=0")
		for trial := 0; trial < 50; trial++ {
			access := testRank()
			if n := always.Inject(rng, access); n != 1 {
				t.Fatalf("vrt:flicker=1 flipped %d bits", n)
			}
			if n := never.Inject(rng, access); n != 0 {
				t.Fatalf("vrt:flicker=0 flipped %d bits", n)
			}
		}
	})

	t.Run("inherent", func(t *testing.T) {
		access := testRank()
		total := 0
		for i := range access {
			total += access[i].TotalBits()
		}
		if n := MustScenario("inherent:ber=1").Inject(rng, access); n != total {
			t.Fatalf("inherent:ber=1 flipped %d of %d stored bits", n, total)
		}
		if rankPopCount(access) != total {
			t.Fatal("inherent:ber=1 missed stored bits")
		}
	})

	t.Run("cell", func(t *testing.T) {
		sc := MustScenario("cell:n=3")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			if n := sc.Inject(rng, access); n != 3 {
				t.Fatalf("cell:n=3 flipped %d bits", n)
			}
			if got := chipsTouched(access); got != 1 {
				t.Fatalf("cell touched %d chips", got)
			}
		}
	})

	t.Run("localwordline", func(t *testing.T) {
		sc := MustScenario("localwordline")
		for trial := 0; trial < 100; trial++ {
			access := testRank()
			sc.Inject(rng, access)
			for i := range access {
				a := access[i]
				var pins []int
				for p := 0; p < 16; p++ {
					for beat := 0; beat < 8; beat++ {
						if a.Data.Get(p, beat) {
							pins = append(pins, p)
							break
						}
					}
				}
				if len(pins) == 0 {
					continue
				}
				if pins[len(pins)-1]-pins[0] >= MatPins || pins[0]/MatPins != pins[len(pins)-1]/MatPins {
					t.Fatalf("localwordline crossed a mat boundary: pins %v", pins)
				}
			}
		}
	})

	t.Run("retention-clusters", func(t *testing.T) {
		// With a saturating population and large clusters the corruption
		// must show pin-adjacent runs, not isolated cells: mean run length
		// strictly above 1.
		sc := MustScenario("retention:pop=0.02,cluster=4")
		runs, flips := 0, 0
		for trial := 0; trial < 50; trial++ {
			access := testRank()
			sc.Inject(rng, access)
			for i := range access {
				a := access[i]
				for beat := 0; beat < 8; beat++ {
					inRun := false
					for p := 0; p < 16; p++ {
						if a.Data.Get(p, beat) {
							flips++
							if !inRun {
								runs++
								inRun = true
							}
						} else {
							inRun = false
						}
					}
				}
			}
		}
		if runs == 0 {
			t.Fatal("retention never seeded at pop=0.02")
		}
		if mean := float64(flips) / float64(runs); mean < 1.5 {
			t.Fatalf("retention clustering absent: mean run length %.2f", mean)
		}
	})

	t.Run("compose", func(t *testing.T) {
		sc := MustScenario("compose(lane,lane)")
		access := testRank()
		if n := sc.Inject(rng, access); n != 2 {
			t.Fatalf("compose(lane,lane) flipped %d bits", n)
		}
	})
}

// TestScenarioDataOnlyAccess: scenarios must tolerate accesses exposing
// only a Data burst (the faultmap CLI renders exactly that view).
func TestScenarioDataOnlyAccess(t *testing.T) {
	for _, id := range ScenarioIDs() {
		sc := MustScenario(id)
		rng := rand.New(rand.NewSource(3))
		access := []dram.Chip{{Data: dram.NewRegion(16, 8)}}
		for trial := 0; trial < 20; trial++ {
			sc.Inject(rng, access) // must not panic
		}
	}
}
