package ecc

import (
	"pair/internal/dram"
	"pair/internal/hamming"
)

// IECC is conventional In-DRAM ECC: each chip protects its 128-bit access
// with a (136,128) single-error-correcting Hamming code whose 8 check bits
// live in the on-die redundancy region and never cross the pins.
//
// This is the scheme the paper's abstract criticizes: a SEC code
// miscorrects most multi-bit patterns (silent data corruption) and offers
// no structure against pin or burst faults.
type IECC struct {
	org  dram.Organization
	code *hamming.Code
}

// NewIECC returns conventional on-die ECC on the given organization.
func NewIECC(org dram.Organization) *IECC {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	return &IECC{org: org, code: hamming.MustSEC(org.AccessBits())}
}

// Name implements Scheme.
func (s *IECC) Name() string { return "iecc" }

// Org implements Scheme.
func (s *IECC) Org() dram.Organization { return s.org }

// NewStored implements Scheme.
func (s *IECC) NewStored() *Stored { return NewImage(s.org, s.org.ChipsPerRank, s.code.M, 0) }

// EncodeBatchInto implements Scheme.
func (s *IECC) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image. The codeword is systematic and the burst's
// bytes are exactly the data half, so the on-die region is just the check
// bits of the burst.
func (s *IECC) encode(st *Stored, line []byte) {
	for i := range st.Chips {
		c := &st.Chips[i]
		dram.SplitChip(&s.org, line, i, c.Data)
		putCheck(c.OnDie, s.code.CheckBits(c.Data.Bits))
	}
}

// putCheck stores check bits in a one-beat on-die region (at most 16).
func putCheck(r dram.Region, ck uint16) {
	r.Bits[0] = byte(ck)
	if len(r.Bits) > 1 {
		r.Bits[1] = byte(ck >> 8)
	}
}

// storedCheck returns the check bits putCheck stored.
func storedCheck(r dram.Region) uint16 {
	ck := uint16(r.Bits[0])
	if len(r.Bits) > 1 {
		ck |= uint16(r.Bits[1]) << 8
	}
	return ck
}

// DecodeBatchInto implements Scheme. Each chip decodes independently
// inside the die; the controller sees only the (possibly miscorrected)
// data.
func (s *IECC) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line. The syndrome of the (data, on-die check) pair
// is CheckBits(data) XOR storedCheck, so no N-bit word is assembled; a
// data-bit correction lands directly in the line buffer.
func (s *IECC) decode(dst []byte, st *Stored) Claim {
	claim := ClaimClean
	busWidth := s.org.ChipsPerRank * s.org.Pins
	for i := range st.Chips {
		c := &st.Chips[i]
		dram.JoinChip(&s.org, dst, i, c.Data)
		pos, outcome := s.code.DecodeSyndrome(s.code.CheckBits(c.Data.Bits) ^ storedCheck(c.OnDie))
		switch outcome {
		case hamming.Detected:
			claim = ClaimDetected
		case hamming.Corrected:
			if claim != ClaimDetected {
				claim = ClaimCorrected
			}
			if pos < s.code.K {
				// Data-bit flip: burst bit pos is (pin pos%Pins, beat
				// pos/Pins), i.e. line bit beat*busWidth + chip*Pins + pin.
				bit := (pos/s.org.Pins)*busWidth + i*s.org.Pins + pos%s.org.Pins
				dst[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
	return claim
}

// StorageOverhead implements Scheme: 8/128 = 6.25%.
func (s *IECC) StorageOverhead() float64 { return s.code.StorageOverhead() }

// Cost implements Scheme. The in-die decoder adds a fixed latency to
// reads; masked writes trigger an internal read-modify-write that is
// invisible on the bus but stretches the write recovery inside the die —
// modelled as an additional read issued at a low rate (the die's internal
// column cycle), matching vendor-reported IECC write penalties.
func (s *IECC) Cost() AccessCost {
	return AccessCost{
		DecodeLatencyNS:          2.0,
		ExtraReadsPerMaskedWrite: 1.0,
	}
}
