package dram

import (
	"fmt"
	"math/bits"
)

// Address identifies one column access within a channel.
type Address struct {
	Rank  int
	Group int // bank group
	Bank  int // bank within group
	Row   int
	Col   int
}

// String renders the address for logs.
func (a Address) String() string {
	return fmt.Sprintf("rk%d bg%d ba%d r%#x c%#x", a.Rank, a.Group, a.Bank, a.Row, a.Col)
}

// AddressMapper converts flat cache-line addresses to DRAM coordinates
// using the row-interleaved mapping common in servers:
//
//	row : high bits | bank group ^ col-low (XOR-permuted) | bank | rank | column
//
// The XOR permutation on the bank-group bits spreads consecutive lines over
// bank groups so back-to-back accesses avoid tCCD_L, matching what real
// controllers do; without it the timing results would punish streaming
// workloads unrealistically.
type AddressMapper struct {
	Org   Organization
	Ranks int

	// shifts holds log2 of Cols, Ranks, BanksPerGrp and BankGroups, the
	// fields Map peels off the line in that order, when those four and
	// Rows are all powers of two (pow2, set by NewAddressMapper). Map
	// then shifts and masks; any other geometry divides.
	shifts [4]uint8
	pow2   bool
}

// NewAddressMapper builds a mapper for the given organization and rank
// count (>= 1).
func NewAddressMapper(org Organization, ranks int) (*AddressMapper, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("dram: invalid rank count %d", ranks)
	}
	m := &AddressMapper{Org: org, Ranks: ranks, pow2: isPow2(org.Rows)}
	for i, n := range [4]int{org.Cols, ranks, org.BanksPerGrp, org.BankGroups} {
		m.shifts[i] = uint8(bits.TrailingZeros(uint(n)))
		m.pow2 = m.pow2 && isPow2(n)
	}
	return m, nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Capacity returns the number of cache lines the channel holds.
func (m *AddressMapper) Capacity() uint64 {
	o := &m.Org
	return uint64(m.Ranks) * uint64(o.Banks()) * uint64(o.Rows) * uint64(o.Cols)
}

// Map converts a cache-line index (0-based, < Capacity) to its DRAM
// address, written to *a, and returns the address's flat bank: a dense
// index of its (rank, group, bank) triple in [0, NumFlatBanks), under
// which the timing simulator keeps bank state. The address goes out
// through a pointer because a returned Address, five words, is staged in
// memory, and copying it whole right after stalls on store forwarding.
func (m *AddressMapper) Map(line uint64, a *Address) (flatBank int) {
	o := &m.Org
	var col, rank, bank, group, row uint64
	if m.pow2 {
		col = line & uint64(o.Cols-1)
		line >>= m.shifts[0]
		rank = line & uint64(m.Ranks-1)
		line >>= m.shifts[1]
		bank = line & uint64(o.BanksPerGrp-1)
		line >>= m.shifts[2]
		group = line & uint64(o.BankGroups-1)
		line >>= m.shifts[3]
		row = line & uint64(o.Rows-1)
	} else {
		col = line % uint64(o.Cols)
		line /= uint64(o.Cols)
		rank = line % uint64(m.Ranks)
		line /= uint64(m.Ranks)
		bank = line % uint64(o.BanksPerGrp)
		line /= uint64(o.BanksPerGrp)
		group = line % uint64(o.BankGroups)
		line /= uint64(o.BankGroups)
		row = line % uint64(o.Rows)
	}
	// XOR-permute the bank group with the low column bits.
	group ^= col & uint64(o.BankGroups-1)
	a.Rank, a.Group, a.Bank, a.Row, a.Col = int(rank), int(group), int(bank), int(row), int(col)
	return int((rank*uint64(o.BankGroups)+group)*uint64(o.BanksPerGrp) + bank)
}

// NumFlatBanks returns the number of distinct flat banks Map returns.
func (m *AddressMapper) NumFlatBanks() int {
	return m.Ranks * m.Org.Banks()
}
