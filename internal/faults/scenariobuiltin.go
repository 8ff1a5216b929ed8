package faults

import (
	"fmt"
	"math/rand"
	"strconv"

	"pair/internal/dram"
	"pair/internal/registry"
)

// Builtin fault scenarios. Each mirrors the physical reach the
// corresponding ecc injection path established: interface faults (pin,
// bursts, lane, beat) touch only what crosses the pins — Data always,
// Xfer redundancy when present, never OnDie — while array faults
// (retention, row hammer, VRT, cell, chipkill, inherent) reach every
// stored bit including the on-die redundancy, because weak cells do not
// care which logical region they sit in.

func init() {
	register(ScenarioEntry{
		ID:          "inherent",
		Description: "process-scaling weak cells: every stored bit of every chip flips independently at a bit-error rate",
		Options: []registry.OptionDoc{
			{Key: "ber", Doc: "per-bit flip probability in [0,1] (default 1e-4)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			ber, err := optFloat(opts, "ber", 1e-4, 0, 1)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				n := 0
				for i := range chips {
					n += InjectInherent(rng, &chips[i], ber)
				}
				return n
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "retention",
		Description: "retention-failure population: rare weak-cell seeds that fail in clusters along adjacent bit positions",
		Options: []registry.OptionDoc{
			{Key: "pop", Doc: "expected failed-cell fraction in [0,1] (default 1e-4)"},
			{Key: "cluster", Doc: "mean cluster size >= 1 spread along adjacent pins (default 2)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			pop, err := optFloat(opts, "pop", 1e-4, 0, 1)
			if err != nil {
				return nil, err
			}
			cluster, err := optFloat(opts, "cluster", 2, 1, 64)
			if err != nil {
				return nil, err
			}
			seedRate := pop / cluster
			return func(rng *rand.Rand, chips []dram.Chip) int {
				n := 0
				for i := range chips {
					n += injectRetention(rng, &chips[i], seedRate, cluster)
				}
				return n
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "vrt",
		Description: "variable retention time: one random stored cell of one chip flickers, flipping with the given probability",
		Options: []registry.OptionDoc{
			{Key: "flicker", Doc: "per-access flip probability of the weak cell, in [0,1] (default 0.2)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			flicker, err := optFloat(opts, "flicker", 0.2, 0, 1)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				c := &chips[rng.Intn(len(chips))]
				idx := rng.Intn(c.TotalBits())
				if rng.Float64() >= flicker {
					return 0
				}
				c.Flip(idx)
				return 1
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "rowhammer",
		Description: "row-hammer disturbance: victim cells clustered around an aggressor wordline position on one chip",
		Options: []registry.OptionDoc{
			{Key: "radius", Doc: "pin distance from the aggressor position that can flip, >= 0 (default 1)"},
			{Key: "rate", Doc: "per-cell flip probability inside the radius, in (0,1] (default 0.25)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			radius, err := optInt(opts, "radius", 1, 0, 1<<20)
			if err != nil {
				return nil, err
			}
			rate, err := optFloat(opts, "rate", 0.25, 0, 1)
			if err != nil {
				return nil, err
			}
			if rate == 0 {
				return nil, fmt.Errorf("option rate must be > 0")
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				return injectRowHammer(rng, chips[rng.Intn(len(chips))].Data, radius, rate)
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "cell",
		Description: "hard cell faults: exactly n distinct random stored bits of one chip flip",
		Options: []registry.OptionDoc{
			{Key: "n", Doc: "number of distinct flipped cells, >= 1 (default 1)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			count, err := optInt(opts, "n", 1, 1, 1<<20)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				return InjectNCells(rng, &chips[rng.Intn(len(chips))], count)
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "pin",
		Description: "DQ pin fault (TSV/bond-wire/IO driver): one pin's lane corrupted in everything crossing the pins",
		New: noOptions(func(rng *rand.Rand, chips []dram.Chip) int {
			return InjectPin(rng, &chips[rng.Intn(len(chips))])
		}),
	})

	register(ScenarioEntry{
		ID:          "pinburst",
		Description: "burst error along one pin's serial line: b consecutive beats flip on one pin of one chip",
		Options: []registry.OptionDoc{
			{Key: "b", Doc: "burst length in beats, >= 1 (default 4)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			b, err := optInt(opts, "b", 4, 1, 1<<20)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				return InjectPinBurst(rng, chips[rng.Intn(len(chips))].Data, b)
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "beatburst",
		Description: "burst error across the bus width (crosstalk): one beat flips on b consecutive pins of one chip",
		Options: []registry.OptionDoc{
			{Key: "b", Doc: "burst length in pins, >= 1 (default 2)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			b, err := optInt(opts, "b", 2, 1, 1<<20)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, chips []dram.Chip) int {
				return InjectBeatBurst(rng, chips[rng.Intn(len(chips))].Data, b)
			}, nil
		},
	})

	register(ScenarioEntry{
		ID:          "lane",
		Description: "bitline (column) fault: one fixed (pin, beat) bit of one chip flips",
		New: noOptions(func(rng *rand.Rand, chips []dram.Chip) int {
			return InjectLane(rng, chips[rng.Intn(len(chips))].Data)
		}),
	})

	register(ScenarioEntry{
		ID:          "beat",
		Description: "IO-strobe glitch: one beat corrupted across all pins of one chip",
		New: noOptions(func(rng *rand.Rand, chips []dram.Chip) int {
			return InjectBeat(rng, chips[rng.Intn(len(chips))].Data)
		}),
	})

	register(ScenarioEntry{
		ID:          "localwordline",
		Description: "mat-local wordline fault: the adjacent pins one mat feeds corrupted across all beats of one chip",
		New: noOptions(func(rng *rand.Rand, chips []dram.Chip) int {
			return InjectLocalWordline(rng, chips[rng.Intn(len(chips))].Data)
		}),
	})

	register(ScenarioEntry{
		ID:          "chipkill",
		Description: "whole-chip failure: every stored bit of k distinct chips randomized (data, on-die and transferred redundancy)",
		Options: []registry.OptionDoc{
			{Key: "chips", Doc: "number of simultaneously failing chips, >= 1 (default 1)"},
		},
		New: func(opts map[string]string) (InjectFunc, error) {
			chips, err := optInt(opts, "chips", 1, 1, 1<<20)
			if err != nil {
				return nil, err
			}
			return func(rng *rand.Rand, image []dram.Chip) int {
				var small [16]int
				n := 0
				for _, c := range permPrefix(rng, len(image), min(chips, len(image)), small[:]) {
					n += InjectWord(rng, &image[c])
				}
				return n
			}, nil
		},
	})
}

// noOptions wraps an option-free injector as a constructor hook.
func noOptions(fn InjectFunc) func(opts map[string]string) (InjectFunc, error) {
	return func(opts map[string]string) (InjectFunc, error) {
		return fn, nil
	}
}

// optFloat resolves a float option against [lo, hi] with a default.
func optFloat(opts map[string]string, key string, def, lo, hi float64) (float64, error) {
	raw, ok := opts[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("option %s=%q is not a number", key, raw)
	}
	if !(v >= lo && v <= hi) { // negated so NaN is rejected too
		return 0, fmt.Errorf("option %s=%q outside [%g, %g]", key, raw, lo, hi)
	}
	return v, nil
}

// optInt resolves an integer option against [lo, hi] with a default.
func optInt(opts map[string]string, key string, def, lo, hi int) (int, error) {
	raw, ok := opts[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("option %s=%q is not an integer", key, raw)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("option %s=%q outside [%d, %d]", key, raw, lo, hi)
	}
	return v, nil
}

// injectRetention seeds weak cells at seedRate per stored bit and grows
// each seed into a cluster with the given mean size along adjacent pins of
// the same beat, clipped at the region edge so boundary clusters truncate
// instead of wrapping. The on-die region is one beat, so its clusters run
// along adjacent bit indices.
func injectRetention(rng *rand.Rand, c *dram.Chip, seedRate, cluster float64) int {
	n := 0
	for _, r := range c.Regions() {
		for beat := 0; beat < r.Beats; beat++ {
			for pin := 0; pin < r.Pins; pin++ {
				if rng.Float64() < seedRate {
					size := clusterSize(rng, cluster)
					for j := 0; j < size && pin+j < r.Pins; j++ {
						r.Flip(pin+j, beat)
						n++
					}
				}
			}
		}
	}
	return n
}

// clusterSize draws a geometric cluster size with the given mean >= 1,
// capped at 64 so a pathological stream cannot run away.
func clusterSize(rng *rand.Rand, mean float64) int {
	size := 1
	if mean <= 1 {
		return size
	}
	p := 1 - 1/mean
	for size < 64 && rng.Float64() < p {
		size++
	}
	return size
}

// injectRowHammer flips each cell within radius pins of an aggressor
// position with the given rate, retrying until at least one bit flips —
// an access known to sit next to a hammered row is disturbed.
func injectRowHammer(rng *rand.Rand, b dram.Region, radius int, rate float64) int {
	center := rng.Intn(b.Pins)
	lo, hi := center-radius, center+radius
	if lo < 0 {
		lo = 0
	}
	if hi > b.Pins-1 {
		hi = b.Pins - 1
	}
	n := 0
	for n == 0 {
		for pin := lo; pin <= hi; pin++ {
			for beat := 0; beat < b.Beats; beat++ {
				if rng.Float64() < rate {
					b.Flip(pin, beat)
					n++
				}
			}
		}
	}
	return n
}
