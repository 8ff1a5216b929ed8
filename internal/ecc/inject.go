package ecc

import (
	"fmt"
	"math/rand"

	"pair/internal/dram"
	"pair/internal/faults"
)

// InjectInherent flips every stored bit of the image — data, on-die
// redundancy and transferred redundancy alike, since all are DRAM cells —
// independently with probability ber. Returns the number of bits flipped.
func InjectInherent(rng *rand.Rand, st *Stored, ber float64) int {
	if ber <= 0 {
		return 0
	}
	n := 0
	for _, ci := range st.Chips {
		if ci.Data != nil {
			n += faults.InjectInherent(rng, ci.Data, ber)
		}
		if ci.OnDie != nil {
			for i := 0; i < ci.OnDie.Len(); i++ {
				if rng.Float64() < ber {
					ci.OnDie.Flip(i)
					n++
				}
			}
		}
		if ci.Xfer != nil {
			n += faults.InjectInherent(rng, ci.Xfer, ber)
		}
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
	ci := st.Chips[chip]
	switch kind {
	case faults.InherentCell, faults.TransientBit, faults.PermanentCell:
		// One uniformly random stored bit, data or redundancy: weak cells
		// do not care which logical region they sit in.
		flipChipBit(ci, rng.Intn(ci.TotalBits()))
	case faults.PermanentColumn:
		// Bitline fault: one fixed lane of the access.
		faults.InjectLane(rng, ci.Data)
	case faults.PermanentPin:
		injectPinFault(rng, ci, rng.Intn(ci.Data.Pins))
	case faults.PermanentLocalWordline:
		faults.InjectLocalWordline(rng, ci.Data)
	case faults.PermanentWord, faults.PermanentRow, faults.PermanentBank:
		corruptArray(rng, ci)
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
	ci := st.Chips[f.Chip]
	switch f.Kind {
	case faults.InherentCell, faults.TransientBit, faults.PermanentCell, faults.PermanentColumn:
		d := ci.Data
		d.Flip(f.Lane%d.Pins, (f.Lane/d.Pins)%d.Beats)
	case faults.PermanentPin:
		injectPinFault(rng, ci, f.Lane%ci.Data.Pins)
	case faults.PermanentLocalWordline:
		faults.ApplyLocalWordline(rng, ci.Data, f.Lane)
	case faults.PermanentWord, faults.PermanentRow, faults.PermanentBank:
		corruptArray(rng, ci)
	default:
		panic(fmt.Sprintf("ecc: cannot apply device fault of kind %v", f.Kind))
	}
}

// FlipStored flips the stored bit with global index idx, where indices run
// over chips in order and, within a chip, over Data, OnDie, Xfer. It is
// the primitive the semi-analytic BER sweep uses to place exactly k
// distinct weak cells.
func FlipStored(st *Stored, idx int) {
	for _, ci := range st.Chips {
		n := ci.TotalBits()
		if idx < n {
			flipChipBit(ci, idx)
			return
		}
		idx -= n
	}
	panic(fmt.Sprintf("ecc: stored bit index %d out of range", idx))
}

// FlipRandomStoredBits flips exactly k distinct uniformly random stored
// bits across the whole image.
func FlipRandomStoredBits(rng *rand.Rand, st *Stored, k int) {
	total := st.TotalBits()
	if k > total {
		k = total
	}
	// Floyd's sampling of k distinct indices.
	chosen := make(map[int]bool, k)
	for j := total - k; j < total; j++ {
		v := rng.Intn(j + 1)
		if chosen[v] {
			v = j
		}
		chosen[v] = true
	}
	for idx := range chosen {
		FlipStored(st, idx)
	}
}

// flipChipBit flips bit idx of the chip image, where indices run over
// Data, OnDie, Xfer in that order.
func flipChipBit(ci *ChipImage, idx int) {
	if ci.Data != nil {
		n := ci.Data.Pins * ci.Data.Beats
		if idx < n {
			ci.Data.Flip(idx%ci.Data.Pins, idx/ci.Data.Pins)
			return
		}
		idx -= n
	}
	if ci.OnDie != nil {
		if idx < ci.OnDie.Len() {
			ci.OnDie.Flip(idx)
			return
		}
		idx -= ci.OnDie.Len()
	}
	ci.Xfer.Flip(idx%ci.Xfer.Pins, idx/ci.Xfer.Pins)
}

// injectPinFault corrupts the given pin's lane in everything that crosses
// the pins: the data burst and any transferred redundancy beats. The
// on-die region is untouched — it never leaves the die.
func injectPinFault(rng *rand.Rand, ci *ChipImage, pin int) {
	n := 0
	for n == 0 {
		for beat := 0; beat < ci.Data.Beats; beat++ {
			if rng.Intn(2) == 1 {
				ci.Data.Flip(pin, beat)
				n++
			}
		}
		if ci.Xfer != nil && pin < ci.Xfer.Pins {
			for beat := 0; beat < ci.Xfer.Beats; beat++ {
				if rng.Intn(2) == 1 {
					ci.Xfer.Flip(pin, beat)
					n++
				}
			}
		}
	}
}

// corruptArray randomizes the whole chip image (each bit flips with
// probability 1/2, at least one flip) — the per-access signature of word,
// row and bank faults, which garble everything the affected array region
// holds, redundancy included.
func corruptArray(rng *rand.Rand, ci *ChipImage) {
	n := 0
	for n == 0 {
		n += randomize(rng, ci.Data)
		if ci.OnDie != nil {
			for i := 0; i < ci.OnDie.Len(); i++ {
				if rng.Intn(2) == 1 {
					ci.OnDie.Flip(i)
					n++
				}
			}
		}
		if ci.Xfer != nil {
			n += randomize(rng, ci.Xfer)
		}
	}
}

func randomize(rng *rand.Rand, b *dram.Burst) int {
	n := 0
	for pin := 0; pin < b.Pins; pin++ {
		for beat := 0; beat < b.Beats; beat++ {
			if rng.Intn(2) == 1 {
				b.Flip(pin, beat)
				n++
			}
		}
	}
	return n
}
