// Package faults models DRAM fault behaviour at the two granularities the
// PAIR evaluation needs.
//
// Access level: injectors that corrupt a single chip access (a dram.Chip,
// or the dram.Region of its data burst) with a given pattern — inherent
// weak-cell flips at a swept bit-error rate, single-cell upsets, whole-pin
// (DQ/TSV) faults, bitline lanes, beat faults, and burst errors along or
// across pins. These drive the codeword-level reliability experiments
// (F1/F2/T2/F6/F7). Each pattern has one implementation, which the fault
// scenarios and the ecc bridge share.
//
// Device level: permanent fault records with geometric footprints (which
// accesses of which bank/row/column they touch), FIT rates shaped after
// published field studies, footprint intersection, and per-access error
// pattern synthesis. These drive the lifetime Monte-Carlo (F3), where the
// dangerous events are single faults whose pattern defeats a scheme and
// pairs of faults whose footprints overlap in one access.
package faults

import (
	"fmt"
	"math/rand"

	"pair/internal/dram"
)

// Kind enumerates the fault classes of the model.
type Kind int

const (
	// InherentCell is a process-scaling weak cell: a random single bit,
	// present from manufacturing, at a per-bit rate swept by experiments.
	InherentCell Kind = iota
	// TransientBit is a soft single-bit upset; scrubbing removes it.
	TransientBit
	// PermanentCell is a hard single-cell fault (one bit of one access).
	PermanentCell
	// PermanentWord corrupts one whole column access (random pattern).
	PermanentWord
	// PermanentPin kills one DQ pin of a chip: every access loses that
	// pin's symbol (TSV/bond-wire/IO driver failures).
	PermanentPin
	// PermanentColumn is a bitline fault: one bit lane of every access at
	// one column address of one bank.
	PermanentColumn
	// PermanentRow is a full wordline fault: every access of one row of
	// one bank returns garbage.
	PermanentRow
	// PermanentLocalWordline is a mat-local wordline fault: every access
	// of one row is corrupted only in the MatPins pins the failing mat
	// feeds. Scaled DRAM breaks rows at mat granularity more often than
	// whole-row; the locality is what pin-aligned codewords exploit.
	PermanentLocalWordline
	// PermanentBank is a local-decoder/sense-amp fault: every access of
	// one bank is suspect (random corruption per access).
	PermanentBank
	numKinds
)

// NumKinds is the number of fault kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case InherentCell:
		return "inherent-cell"
	case TransientBit:
		return "transient-bit"
	case PermanentCell:
		return "permanent-cell"
	case PermanentWord:
		return "permanent-word"
	case PermanentPin:
		return "permanent-pin"
	case PermanentColumn:
		return "permanent-column"
	case PermanentRow:
		return "permanent-row"
	case PermanentLocalWordline:
		return "permanent-local-wordline"
	case PermanentBank:
		return "permanent-bank"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FITEntry is a failure-in-time rate (failures per 10^9 device-hours) for
// one fault kind of one chip.
type FITEntry struct {
	Kind Kind
	Rate float64
}

// DefaultFITTable returns per-chip FIT rates shaped after the published
// field studies this literature cites (Sridharan et al.). The absolute
// values set the x-axis scale of the lifetime experiment; the scheme
// ordering the paper claims depends on the *mix* (distributed cell faults
// dominate, pattern faults are significant), which these preserve.
func DefaultFITTable() []FITEntry {
	return []FITEntry{
		{TransientBit, 14.2},
		{PermanentCell, 18.6},
		{PermanentWord, 1.4},
		{PermanentPin, 2.0},
		{PermanentColumn, 5.1},
		{PermanentRow, 4.8},
		{PermanentLocalWordline, 4.0},
		{PermanentBank, 10.0},
	}
}

// --- Access-level injectors -------------------------------------------
//
// Each injector XORs an error pattern drawn from the RNG alone into a
// chip access, without reading it, and returns the number of bits
// flipped. Array patterns take the whole dram.Chip and reach every stored
// bit; interface patterns reach what crosses the pins; the rest take the
// data burst alone.

// InjectInherent flips every stored bit of the chip independently with
// probability ber — data, on-die and transferred redundancy alike, since
// all are DRAM cells — walking each region pin by pin.
func InjectInherent(rng *rand.Rand, c *dram.Chip, ber float64) int {
	if ber <= 0 {
		return 0
	}
	n := 0
	for _, r := range c.Regions() {
		for pin := 0; pin < r.Pins; pin++ {
			for beat := 0; beat < r.Beats; beat++ {
				if rng.Float64() < ber {
					r.Flip(pin, beat)
					n++
				}
			}
		}
	}
	return n
}

// InjectNCells flips exactly n distinct random stored bits of the chip
// (every bit when n exceeds the chip's size) and returns the count.
func InjectNCells(rng *rand.Rand, c *dram.Chip, n int) int {
	total := c.TotalBits()
	if n > total {
		n = total
	}
	var small [16]int
	for _, idx := range permPrefix(rng, total, n, small[:]) {
		c.Flip(idx)
	}
	return n
}

// permPrefix returns rng.Perm(total)[:n], n <= total, after the same
// Intn(i+1) draws for i = 0..total-1, so the RNG ends where rng.Perm
// leaves it, but without building the whole permutation: Perm's shuffle
// only ever fills a position below n from another position below n or
// from the constant i, so the positions at or above n need not exist.
// The result reuses buf when it has room for n entries.
func permPrefix(rng *rand.Rand, total, n int, buf []int) []int {
	var m []int
	if n <= cap(buf) {
		m = buf[:n]
	} else {
		m = make([]int, n)
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	for i := n; i < total; i++ {
		if j := rng.Intn(i + 1); j < n {
			m[j] = i
		}
	}
	return m
}

// InjectPin corrupts one random pin of the chip (see InjectPinAt).
func InjectPin(rng *rand.Rand, c *dram.Chip) int {
	return InjectPinAt(rng, c, rng.Intn(c.Data.Pins))
}

// InjectPinAt corrupts the given pin's lane in everything that crosses
// the pins — the data burst, then any transferred redundancy — and never
// the on-die region, which stays inside the die. Each beat on the lane
// flips with probability 1/2, and at least one bit flips.
func InjectPinAt(rng *rand.Rand, c *dram.Chip, pin int) int {
	n := 0
	for n == 0 {
		for _, r := range [2]dram.Region{c.Data, c.Xfer} {
			if pin >= r.Pins {
				continue
			}
			for beat := 0; beat < r.Beats; beat++ {
				if rng.Intn(2) == 1 {
					r.Flip(pin, beat)
					n++
				}
			}
		}
	}
	return n
}

// InjectLane flips one fixed (pin, beat) position — the per-access
// signature of a bitline (column) fault.
func InjectLane(rng *rand.Rand, mask dram.Region) int {
	mask.Flip(rng.Intn(mask.Pins), rng.Intn(mask.Beats))
	return 1
}

// InjectBeat corrupts one random beat across all pins (an IO-strobe
// glitch): each pin's bit in that beat flips with probability 1/2, at
// least one flip guaranteed.
func InjectBeat(rng *rand.Rand, mask dram.Region) int {
	beat := rng.Intn(mask.Beats)
	n := 0
	for n == 0 {
		for pin := 0; pin < mask.Pins; pin++ {
			if rng.Intn(2) == 1 {
				mask.Flip(pin, beat)
				n++
			}
		}
	}
	return n
}

// InjectWord replaces the whole chip access with random corruption: every
// stored bit — data, on-die and transferred redundancy — flips with
// probability 1/2, at least one flip guaranteed. It is the per-access
// signature of word, row and bank faults and of a chip kill. The returned
// count is exact: the retry loop only repeats after a pass that flipped
// nothing, which leaves both the chip and the count untouched.
func InjectWord(rng *rand.Rand, c *dram.Chip) int {
	n := 0
	for n == 0 {
		for _, r := range c.Regions() {
			for pin := 0; pin < r.Pins; pin++ {
				for beat := 0; beat < r.Beats; beat++ {
					if rng.Intn(2) == 1 {
						r.Flip(pin, beat)
						n++
					}
				}
			}
		}
	}
	return n
}

// MatPins is the number of adjacent DQ pins one mat feeds in this model;
// a mat-local wordline fault corrupts exactly these pins of an access.
const MatPins = 2

// InjectLocalWordline corrupts the MatPins adjacent pins of one random
// mat across all beats (each bit flips with probability 1/2, at least one
// flip). Returns the number of flips.
func InjectLocalWordline(rng *rand.Rand, mask dram.Region) int {
	return injectLocalWordlineAt(rng, mask, rng.Intn(mask.Pins/MatPins))
}

// ApplyLocalWordline corrupts the pins of the given mat index (for
// device-level faults whose mat is fixed).
func ApplyLocalWordline(rng *rand.Rand, mask dram.Region, mat int) int {
	return injectLocalWordlineAt(rng, mask, mat%(mask.Pins/MatPins))
}

// injectLocalWordlineAt corrupts the mat's pins; as in InjectWord, the
// zero-flip retry keeps the returned count equal to the bits flipped.
func injectLocalWordlineAt(rng *rand.Rand, mask dram.Region, mat int) int {
	base := mat * MatPins
	n := 0
	for n == 0 {
		for i := 0; i < MatPins; i++ {
			for beat := 0; beat < mask.Beats; beat++ {
				if rng.Intn(2) == 1 {
					mask.Flip(base+i, beat)
					n++
				}
			}
		}
	}
	return n
}

// InjectPinBurst flips b consecutive beats of one random pin — a burst
// error along the pin's serial line, the pattern PAIR's pin alignment
// confines to one symbol. The length clamps to [0, mask.Beats]; like
// every injector it returns the actual number of flipped bits, so a
// non-positive b flips nothing, returns 0 and draws no randomness.
func InjectPinBurst(rng *rand.Rand, mask dram.Region, b int) int {
	if b <= 0 {
		return 0
	}
	if b > mask.Beats {
		b = mask.Beats
	}
	pin := rng.Intn(mask.Pins)
	start := rng.Intn(mask.Beats - b + 1)
	for i := 0; i < b; i++ {
		mask.Flip(pin, start+i)
	}
	return b
}

// InjectBeatBurst flips one beat's bit on b consecutive pins — a burst
// across the bus width (crosstalk), the pattern beat-aligned symbols
// confine but pin-aligned symbols spread. The length clamps to
// [0, mask.Pins] and the return value is the actual flip count, exactly
// as for InjectPinBurst.
func InjectBeatBurst(rng *rand.Rand, mask dram.Region, b int) int {
	if b <= 0 {
		return 0
	}
	if b > mask.Pins {
		b = mask.Pins
	}
	beat := rng.Intn(mask.Beats)
	start := rng.Intn(mask.Pins - b + 1)
	for i := 0; i < b; i++ {
		mask.Flip(start+i, beat)
	}
	return b
}
