package ecc

import (
	"pair/internal/bitvec"
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
func (s *SECDED) NewStored() *Stored {
	st := &Stored{Org: s.org, Chips: make([]*ChipImage, s.org.TotalChips())}
	for i := range st.Chips {
		st.Chips[i] = &ChipImage{Data: dram.NewBurst(s.org.Pins, s.org.BurstLen)}
	}
	return st
}

// EncodeBatchInto implements Scheme.
func (s *SECDED) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image. Beat b's codeword protects the bus bits of
// that beat, which are line bytes [b*K/8, (b+1)*K/8): the bus is K =
// ChipsPerRank x Pins bits wide, and Pins = M = 8 makes that whole bytes.
func (s *SECDED) encode(st *Stored, line []byte) {
	nData := s.org.ChipsPerRank
	for c := 0; c < nData; c++ {
		dram.SplitChipInto(s.org, line, c, st.Chips[c].Data)
	}
	eccBits := st.Chips[nData].Data.Bits()
	eccBits.Clear()
	data := bitvec.New(s.code.K)
	beatBytes := s.code.K / 8
	for beat := 0; beat < s.org.BurstLen; beat++ {
		data.Clear()
		for j, v := range line[beat*beatBytes : (beat+1)*beatBytes] {
			data.OrBits(8*j, uint64(v), 8)
		}
		eccBits.OrBits(beat*s.org.Pins, uint64(s.code.CheckBits(data)), s.code.M)
	}
}

// DecodeBatchInto implements Scheme: one (72,64) decode per beat.
func (s *SECDED) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line. One word serves all beats: every position is
// overwritten per beat and the correction happens in place
// (hamming.DecodeInto).
func (s *SECDED) decode(dst []byte, st *Stored) Claim {
	nData := s.org.ChipsPerRank
	eccBits := st.Chips[nData].Data.Bits()
	claim := ClaimClean
	word := bitvec.New(s.code.N)
	beatBytes := s.code.K / 8
	for beat := 0; beat < s.org.BurstLen; beat++ {
		word.Clear()
		for c := 0; c < nData; c++ {
			word.OrBits(c*s.org.Pins, st.Chips[c].Data.Bits().GetBits(beat*s.org.Pins, s.org.Pins), s.org.Pins)
		}
		word.OrBits(s.code.K, eccBits.GetBits(beat*s.org.Pins, s.code.M), s.code.M)
		switch s.code.DecodeInto(word, word) {
		case hamming.Detected:
			claim = ClaimDetected
		case hamming.Corrected:
			if claim != ClaimDetected {
				claim = ClaimCorrected
			}
		}
		for j := 0; j < beatBytes; j++ {
			dst[beat*beatBytes+j] = byte(word.GetBits(8*j, 8))
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
