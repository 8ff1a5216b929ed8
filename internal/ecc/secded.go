package ecc

import (
	"pair/internal/dram"
	"pair/internal/hamming"
)

// SECDED is the classic rank-level ECC-DIMM baseline: a Hsiao (72,64)
// code per burst beat across a nine-chip x8 rank. It needs the extra
// (ninth) chip, so it runs on the DDR4x8ECC organization rather than the
// commodity x16 one; reliability is still accounted per 64-byte line, so
// the comparison to the in-DRAM schemes remains meaningful.
type SECDED struct {
	org  dram.Organization
	code *hamming.Code
}

// NewSECDED returns the rank-level SEC-DED scheme; the organization must
// provide exactly one ECC chip and 8-bit-per-beat check capacity.
func NewSECDED(org dram.Organization) *SECDED {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	if org.ECCChips != 1 {
		panic("ecc: SECDED requires exactly one ECC chip")
	}
	code := hamming.MustSECDED(org.ChipsPerRank * org.Pins)
	if code.M != org.Pins {
		panic("ecc: SECDED check bits do not fit the ECC chip's beat width")
	}
	return &SECDED{org: org, code: code}
}

// Name implements Scheme.
func (s *SECDED) Name() string { return "secded" }

// Org implements Scheme.
func (s *SECDED) Org() dram.Organization { return s.org }

// NewStored implements Scheme. Chips[0..ChipsPerRank) carry data; the
// last image is the ECC chip, whose beat b holds the check byte of beat
// b's codeword.
func (s *SECDED) NewStored() *Stored { return NewImage(s.org, s.org.TotalChips(), 0, 0) }

// EncodeBatchInto implements Scheme.
func (s *SECDED) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image. Beat b's codeword protects the bus bits of
// that beat, which are line bytes [b*K/8, (b+1)*K/8): the bus is K =
// ChipsPerRank x Pins bits wide, and Pins = M = 8 makes that whole bytes.
func (s *SECDED) encode(st *Stored, line []byte) {
	nData := s.org.ChipsPerRank
	for c := 0; c < nData; c++ {
		dram.SplitChip(&s.org, line, c, st.Chips[c].Data)
	}
	eccBytes := st.Chips[nData].Data.Bits // byte b is beat b's check byte
	beatBytes := s.code.K / 8
	for beat := range eccBytes {
		eccBytes[beat] = byte(s.code.CheckBits(line[beat*beatBytes : (beat+1)*beatBytes]))
	}
}

// DecodeBatchInto implements Scheme: one (72,64) decode per beat.
func (s *SECDED) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line the way IECC does: the data chips join the
// line, beat b's syndrome is CheckBits(its line bytes) XOR its stored
// check byte, and a data-bit correction flips the line bit directly.
func (s *SECDED) decode(dst []byte, st *Stored) Claim {
	nData := s.org.ChipsPerRank
	for c := 0; c < nData; c++ {
		dram.JoinChip(&s.org, dst, c, st.Chips[c].Data)
	}
	claim := ClaimClean
	beatBytes := s.code.K / 8
	for beat, ck := range st.Chips[nData].Data.Bits {
		data := dst[beat*beatBytes : (beat+1)*beatBytes]
		pos, outcome := s.code.DecodeSyndrome(s.code.CheckBits(data) ^ uint16(ck))
		switch outcome {
		case hamming.Detected:
			claim = ClaimDetected
		case hamming.Corrected:
			if claim != ClaimDetected {
				claim = ClaimCorrected
			}
			if pos < s.code.K {
				data[pos/8] ^= 1 << (pos % 8)
			}
		}
	}
	return claim
}

// StorageOverhead implements Scheme: the ninth chip, 12.5%.
func (s *SECDED) StorageOverhead() float64 {
	return float64(s.org.ECCChips) / float64(s.org.ChipsPerRank)
}

// Cost implements Scheme: the ECC chip rides along in the same burst (a
// 72-bit bus), so only the decode latency shows up.
func (s *SECDED) Cost() AccessCost {
	return AccessCost{DecodeLatencyNS: 1.5}
}
