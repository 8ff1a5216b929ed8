package faults

import (
	"fmt"
	"math/rand"

	"pair/internal/dram"
)

// Fault is a device-level permanent (or transient single-bit) fault with a
// geometric footprint inside one chip. Wildcard fields use -1 ("all").
type Fault struct {
	Kind Kind
	Chip int   // chip index within the rank
	Bank int   // flat bank index within the chip, or -1 for all banks
	Row  int   // or -1 for all rows
	Col  int   // or -1 for all columns
	Lane int   // bit position within the access for cell/lane faults, else -1
	Seed int64 // per-fault seed: deterministic "random" corruption patterns
}

// Sample draws a fault of the given kind with a uniformly random footprint
// in a chip of the organization. The chip index is also drawn uniformly
// over the data chips.
func Sample(rng *rand.Rand, kind Kind, org dram.Organization) Fault {
	f := Fault{
		Kind: kind,
		Chip: rng.Intn(org.ChipsPerRank),
		Bank: rng.Intn(org.Banks()),
		Row:  rng.Intn(org.Rows),
		Col:  rng.Intn(org.Cols),
		Lane: rng.Intn(org.AccessBits()),
		Seed: rng.Int63(),
	}
	switch kind {
	case InherentCell, TransientBit, PermanentCell:
		// point fault: all coordinates fixed
	case PermanentWord:
		f.Lane = -1
	case PermanentPin:
		f.Bank, f.Row, f.Col = -1, -1, -1
		f.Lane = rng.Intn(org.Pins) // reuse Lane as the pin index
	case PermanentColumn:
		f.Row = -1
	case PermanentRow:
		f.Col, f.Lane = -1, -1
	case PermanentLocalWordline:
		f.Col = -1
		f.Lane = rng.Intn(org.Pins / MatPins) // reuse Lane as the mat index
	case PermanentBank:
		f.Row, f.Col, f.Lane = -1, -1, -1
	default:
		panic(fmt.Sprintf("faults: cannot sample kind %v", kind))
	}
	return f
}

// FootprintAccesses returns the number of column accesses of the chip the
// fault touches.
func (f Fault) FootprintAccesses(org dram.Organization) int64 {
	banks := int64(1)
	if f.Bank < 0 {
		banks = int64(org.Banks())
	}
	rows := int64(1)
	if f.Row < 0 {
		rows = int64(org.Rows)
	}
	cols := int64(1)
	if f.Col < 0 {
		cols = int64(org.Cols)
	}
	return banks * rows * cols
}

// Affects reports whether the fault touches the access at (bank,row,col)
// of its chip.
func (f Fault) Affects(bank, row, col int) bool {
	if f.Bank >= 0 && f.Bank != bank {
		return false
	}
	if f.Row >= 0 && f.Row != row {
		return false
	}
	if f.Col >= 0 && f.Col != col {
		return false
	}
	return true
}

// OverlapAccesses returns the number of accesses touched by both f and g.
// Faults in different chips never share an access... from the chip's point
// of view; rank-level codes see cross-chip combinations, which the caller
// handles by checking bank/row/col overlap with SameRankOverlap.
func (f Fault) OverlapAccesses(g Fault, org dram.Organization) int64 {
	if f.Chip != g.Chip {
		return 0
	}
	return f.rankOverlap(g, org)
}

// SameRankOverlap returns the number of (bank,row,col) access coordinates
// touched by both faults regardless of chip — the overlap a rank-level
// codeword (which spans all chips at the same coordinates) experiences.
func (f Fault) SameRankOverlap(g Fault, org dram.Organization) int64 {
	return f.rankOverlap(g, org)
}

func (f Fault) rankOverlap(g Fault, org dram.Organization) int64 {
	banks := overlap1D(f.Bank, g.Bank, org.Banks())
	rows := overlap1D(f.Row, g.Row, org.Rows)
	cols := overlap1D(f.Col, g.Col, org.Cols)
	return banks * rows * cols
}

// overlap1D returns the size of the intersection of two (possibly
// wildcard) coordinates over a domain of n values.
func overlap1D(a, b, n int) int64 {
	switch {
	case a < 0 && b < 0:
		return int64(n)
	case a < 0 || b < 0:
		return 1
	case a == b:
		return 1
	default:
		return 0
	}
}

// IsTransient reports whether scrubbing removes the fault.
func (f Fault) IsTransient() bool { return f.Kind == TransientBit }

// String renders the fault for logs.
func (f Fault) String() string {
	return fmt.Sprintf("%v chip%d bank%d row%d col%d lane%d", f.Kind, f.Chip, f.Bank, f.Row, f.Col, f.Lane)
}
