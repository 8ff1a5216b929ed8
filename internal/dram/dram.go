// Package dram models the organization of a DDR4-style memory subsystem at
// the fidelity the PAIR study needs: device geometry (channel, rank, chip,
// bank group, bank, row, column), the DQ-pin/beat structure of a burst
// access, and the stored bit layout of one rank access.
//
// # Stored layout
//
// A Region is a pins x beats bit matrix over bytes: bit (pin, beat) is bit
// index beat*Pins + pin, LSB-first (bit i is bit i%8 of Bits[i/8]). This
// beat-major order is the order bits cross the bus, so
//
//   - a chip's beat is a contiguous field of the line, and splitting a
//     line over chips (SplitChip, JoinChip) is byte copies on x8 and x16;
//   - the beat-aligned byte symbols of rank-level codes (DUO) and the data
//     words of Hamming codes (IECC, XED, SECDED) are the stored bytes as
//     they are;
//   - the global stored-bit index the fault injectors draw is the storage
//     index, so every draw lands on the same physical bit by construction.
//
// Only PAIR needs the pin view: the 8 bits a pin carries during 8 beats
// form one Reed-Solomon symbol. Transpose turns a burst into its pin-major
// view and back.
//
// A Chip is one chip's stored image of a rank access: its Data burst, its
// OnDie redundancy (stored as a one-beat region) and its Xfer redundancy
// (extension beats on the same pins). Fault injection happens once, in
// these physical coordinates, and each scheme sees the same physical
// corruption through its own symbolization.
package dram

import "fmt"

// Organization describes a DRAM device and its rank-level arrangement.
type Organization struct {
	Pins         int // DQ pins per chip (x4/x8/x16)
	BurstLen     int // beats per column access (BL8 for DDR4)
	ChipsPerRank int // data chips per rank
	ECCChips     int // additional redundancy chips (rank-level schemes)
	BankGroups   int
	BanksPerGrp  int
	Rows         int // rows per bank
	Cols         int // column accesses per row (each = Pins*BurstLen bits)
}

// DDR4x16 is the default organization of the study: a 64-bit channel built
// from four x16 devices, BL8. One rank access moves 4 chips x 16 pins x 8
// beats = 64 bytes — one cache line.
func DDR4x16() Organization {
	return Organization{
		Pins:         16,
		BurstLen:     8,
		ChipsPerRank: 4,
		ECCChips:     0,
		BankGroups:   2,
		BanksPerGrp:  4,
		Rows:         1 << 16,
		Cols:         1 << 7,
	}
}

// DDR4x8 is a commodity (non-ECC) eight-chip x8 rank.
func DDR4x8() Organization {
	return Organization{
		Pins:         8,
		BurstLen:     8,
		ChipsPerRank: 8,
		ECCChips:     0,
		BankGroups:   4,
		BanksPerGrp:  4,
		Rows:         1 << 16,
		Cols:         1 << 7,
	}
}

// DDR4x4 is a commodity (non-ECC) sixteen-chip x4 rank.
func DDR4x4() Organization {
	return Organization{
		Pins:         4,
		BurstLen:     8,
		ChipsPerRank: 16,
		ECCChips:     0,
		BankGroups:   4,
		BanksPerGrp:  4,
		Rows:         1 << 17,
		Cols:         1 << 7,
	}
}

// DDR5x16 models a DDR5 32-bit subchannel: two x16 devices, BL16. One
// access still moves a 64-byte line (2 chips x 16 pins x 16 beats), but
// each pin now carries 16 bits per burst — two PAIR symbols ("latest
// DRAM model" in the abstract's phrasing).
func DDR5x16() Organization {
	return Organization{
		Pins:         16,
		BurstLen:     16,
		ChipsPerRank: 2,
		ECCChips:     0,
		BankGroups:   8,
		BanksPerGrp:  4,
		Rows:         1 << 16,
		Cols:         1 << 7,
	}
}

// LPDDR5x16 models one LPDDR5 x16 channel as two x16 dies sharing the
// channel, BL16: one access moves a 64-byte line (2 dies x 16 pins x 16
// beats). LPDDR5 has 4 bank groups of 4 banks and refreshes per bank.
func LPDDR5x16() Organization {
	return Organization{
		Pins:         16,
		BurstLen:     16,
		ChipsPerRank: 2,
		ECCChips:     0,
		BankGroups:   4,
		BanksPerGrp:  4,
		Rows:         1 << 16,
		Cols:         1 << 7,
	}
}

// DDR4x8ECC is the organization rank-level baselines (SECDED, XED, DUO)
// assume: nine x8 devices (72-bit bus), BL8.
func DDR4x8ECC() Organization {
	return Organization{
		Pins:         8,
		BurstLen:     8,
		ChipsPerRank: 8,
		ECCChips:     1,
		BankGroups:   4,
		BanksPerGrp:  4,
		Rows:         1 << 16,
		Cols:         1 << 7,
	}
}

// Validate checks internal consistency.
func (o Organization) Validate() error {
	switch {
	case o.Pins != 4 && o.Pins != 8 && o.Pins != 16:
		return fmt.Errorf("dram: unsupported pin width x%d", o.Pins)
	case o.BurstLen != 8 && o.BurstLen != 16:
		return fmt.Errorf("dram: unsupported burst length %d", o.BurstLen)
	case o.ChipsPerRank <= 0 || o.ECCChips < 0:
		return fmt.Errorf("dram: invalid chip counts %d+%d", o.ChipsPerRank, o.ECCChips)
	case o.BankGroups <= 0 || o.BanksPerGrp <= 0 || o.Rows <= 0 || o.Cols <= 0:
		return fmt.Errorf("dram: invalid bank/row/col geometry")
	}
	return nil
}

// TotalChips returns data + ECC chips per rank.
func (o Organization) TotalChips() int { return o.ChipsPerRank + o.ECCChips }

// Banks returns the number of banks per chip.
func (o Organization) Banks() int { return o.BankGroups * o.BanksPerGrp }

// AccessBits returns the data bits one chip moves per column access.
func (o Organization) AccessBits() int { return o.Pins * o.BurstLen }

// LineBytes returns the cache-line size one rank access delivers from the
// data chips.
func (o Organization) LineBytes() int { return o.ChipsPerRank * o.AccessBits() / 8 }

// ChipBitsPerBank returns data bits stored per bank of one chip.
func (o Organization) ChipBitsPerBank() int64 {
	return int64(o.Rows) * int64(o.Cols) * int64(o.AccessBits())
}
