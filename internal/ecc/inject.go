package ecc

import (
	"fmt"
	"math/rand"
	"slices"

	"pair/internal/faults"
)

// InjectInherent flips every stored bit of the image — data, on-die
// redundancy and transferred redundancy alike, since all are DRAM cells —
// independently with probability ber. Returns the number of bits flipped.
func InjectInherent(rng *rand.Rand, st *Stored, ber float64) int {
	n := 0
	for i := range st.Chips {
		n += faults.InjectInherent(rng, &st.Chips[i], ber)
	}
	return n
}

// InjectAccessFault applies the per-access pattern of the given fault kind
// to chip `chip` of the image (pass a negative chip to pick one at
// random). It models what one fault does to one access: array faults
// (cell/word/column/row/bank) corrupt stored bits including the chip's
// on-die redundancy region where appropriate; pin faults corrupt only what
// crosses the pin.
func InjectAccessFault(rng *rand.Rand, st *Stored, kind faults.Kind, chip int) {
	if chip < 0 {
		chip = rng.Intn(len(st.Chips))
	}
	c := &st.Chips[chip]
	switch kind {
	case faults.InherentCell, faults.TransientBit, faults.PermanentCell:
		// One uniformly random stored bit, data or redundancy: weak cells
		// do not care which logical region they sit in.
		c.Flip(rng.Intn(c.TotalBits()))
	case faults.PermanentColumn:
		// Bitline fault: one fixed lane of the access.
		faults.InjectLane(rng, c.Data)
	case faults.PermanentPin:
		faults.InjectPin(rng, c)
	case faults.PermanentLocalWordline:
		faults.InjectLocalWordline(rng, c.Data)
	case faults.PermanentWord, faults.PermanentRow, faults.PermanentBank:
		faults.InjectWord(rng, c)
	default:
		panic(fmt.Sprintf("ecc: cannot inject access fault of kind %v", kind))
	}
}

// ApplyDeviceFault applies the per-access pattern of a device-level fault
// to the chip image it belongs to. The access is assumed to lie inside the
// fault's footprint. Structural faults (cell, column lane, pin) hit
// deterministic positions derived from the fault's Lane; array faults
// randomize the chip's stored bits.
func ApplyDeviceFault(rng *rand.Rand, st *Stored, f faults.Fault) {
	if f.Chip < 0 || f.Chip >= len(st.Chips) {
		panic(fmt.Sprintf("ecc: device fault chip %d outside image with %d chips", f.Chip, len(st.Chips)))
	}
	c := &st.Chips[f.Chip]
	switch f.Kind {
	case faults.InherentCell, faults.TransientBit, faults.PermanentCell, faults.PermanentColumn:
		d := c.Data
		d.Flip(f.Lane%d.Pins, (f.Lane/d.Pins)%d.Beats)
	case faults.PermanentPin:
		faults.InjectPinAt(rng, c, f.Lane%c.Data.Pins)
	case faults.PermanentLocalWordline:
		faults.ApplyLocalWordline(rng, c.Data, f.Lane)
	case faults.PermanentWord, faults.PermanentRow, faults.PermanentBank:
		faults.InjectWord(rng, c)
	default:
		panic(fmt.Sprintf("ecc: cannot apply device fault of kind %v", f.Kind))
	}
}

// FlipStored flips the stored bit with global index idx, where indices run
// over chips in order and, within a chip, over Data, OnDie, Xfer. It is
// the primitive the semi-analytic BER sweep uses to place exactly k
// distinct weak cells. Every chip of an image has one shape, so the index
// maps to its chip by one division.
func FlipStored(st *Stored, idx int) {
	per := st.Chips[0].TotalBits()
	if total := per * len(st.Chips); uint(idx) >= uint(total) {
		panic(fmt.Sprintf("ecc: stored bit index %d outside [0, %d)", idx, total))
	}
	st.Chips[idx/per].Flip(idx % per)
}

// FlipRandomStoredBits flips exactly k distinct uniformly random stored
// bits across the whole image.
func FlipRandomStoredBits(rng *rand.Rand, st *Stored, k int) {
	total := st.TotalBits()
	if k > total {
		k = total
	}
	// Floyd's sampling of k distinct indices. Flips are XORs, so each
	// index is flipped as soon as it is drawn; the chosen set is a short
	// slice (k <= 16 in every sweep) scanned linearly.
	var small [16]int
	chosen := small[:0]
	for j := total - k; j < total; j++ {
		v := rng.Intn(j + 1)
		if slices.Contains(chosen, v) {
			v = j
		}
		chosen = append(chosen, v)
		FlipStored(st, v)
	}
}
