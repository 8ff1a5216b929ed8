package ecc

import (
	"pair/internal/dram"
	"pair/internal/hamming"
)

// XED models the "eXposed on-die Error Detection" architecture (Nair et
// al., ISCA 2016) adapted to the commodity x16 context the PAIR study
// uses (reconstruction note: the original XED assumes a 9-chip ECC DIMM;
// a commodity rank has no ninth chip, so the rank-XOR parity is stored
// inline in DRAM — one parity access per line — which is also what gives
// XED its write-bandwidth penalty here).
//
// Mechanics:
//
//   - Each chip keeps its on-die (136,128) code but uses it purely as an
//     error *detector* (nonzero syndrome => the chip signals a
//     catch-word instead of data). Detection misses only when the error
//     pattern is itself a codeword (probability ~2^-8 for garbage
//     patterns; never for 1- or 2-bit errors since d=3).
//   - A parity image (XOR of the four chips' data bursts) is stored in a
//     reserved region, protected by its own on-die detector.
//   - On a read: no chip flags => data is returned as-is (an undetected
//     corruption becomes SDC — XED's reliability hazard). Exactly one
//     chip flags => its burst is reconstructed from the other three
//     chips plus the parity image. Two or more flags, or a flagged
//     parity image when needed => DUE.
type XED struct {
	org  dram.Organization
	code *hamming.Code
}

// NewXED returns the XED scheme on the given organization.
func NewXED(org dram.Organization) *XED {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	return &XED{org: org, code: hamming.MustSEC(org.AccessBits())}
}

// Name implements Scheme.
func (s *XED) Name() string { return "xed" }

// Org implements Scheme.
func (s *XED) Org() dram.Organization { return s.org }

// NewStored implements Scheme: Chips[0..ChipsPerRank) are the data
// chips; Chips[ChipsPerRank] is the inline parity image.
func (s *XED) NewStored() *Stored { return NewImage(s.org, s.org.ChipsPerRank+1, s.code.M, 0) }

// EncodeBatchInto implements Scheme.
func (s *XED) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image: the data chips, their detector bits and the
// parity image over them.
func (s *XED) encode(st *Stored, line []byte) {
	nData := s.org.ChipsPerRank
	parity := st.Chips[nData].Data.Bits
	clear(parity)
	for i := range st.Chips {
		c := &st.Chips[i]
		if i < nData {
			dram.SplitChip(&s.org, line, i, c.Data)
			xorInto(parity, c.Data.Bits)
		}
		putCheck(c.OnDie, s.code.CheckBits(c.Data.Bits))
	}
}

// xorInto sets dst ^= src byte by byte.
func xorInto(dst, src []byte) {
	for i, v := range src {
		dst[i] ^= v
	}
}

// flagged reports whether the chip's detector fires (nonzero syndrome):
// the data's recomputed check bits disagree with the stored ones.
func (s *XED) flagged(c *dram.Chip) bool {
	return s.code.CheckBits(c.Data.Bits) != storedCheck(c.OnDie)
}

// DecodeBatchInto implements Scheme.
func (s *XED) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line.
func (s *XED) decode(dst []byte, st *Stored) Claim {
	nData := s.org.ChipsPerRank
	flaggedChip := -1
	nFlagged := 0
	for i := 0; i < nData; i++ {
		dram.JoinChip(&s.org, dst, i, st.Chips[i].Data)
		if s.flagged(&st.Chips[i]) {
			flaggedChip = i
			nFlagged++
		}
	}
	switch {
	case nFlagged == 0:
		// Nothing signalled: data passes through. The rank parity is NOT
		// verified on ordinary reads (faithful to XED's design), so an
		// aliased pattern sails through as SDC.
		return ClaimClean
	case nFlagged == 1 && !s.flagged(&st.Chips[nData]):
		// Rebuild the flagged chip's burst as the parity image XOR the
		// other data chips. A burst is at most 16 pins x 16 beats.
		parity := st.Chips[nData].Data
		var buf [32]byte
		rec := parity
		rec.Bits = buf[:len(parity.Bits)]
		copy(rec.Bits, parity.Bits)
		for i := 0; i < nData; i++ {
			if i != flaggedChip {
				xorInto(rec.Bits, st.Chips[i].Data.Bits)
			}
		}
		dram.JoinChip(&s.org, dst, flaggedChip, rec)
		return ClaimCorrected
	default:
		// Two or more chips flagged, or one flagged with a suspect
		// reconstruction source (the parity image itself flags).
		return ClaimDetected
	}
}

// StorageOverhead implements Scheme: 6.25% on-die detector bits on every
// stored access (data and parity) plus the inline parity region, one
// parity access per ChipsPerRank data accesses.
func (s *XED) StorageOverhead() float64 {
	onDie := s.code.StorageOverhead()
	inline := 1.0 / float64(s.org.ChipsPerRank) * (1.0 + onDie)
	return onDie + inline
}

// Cost implements Scheme. Every line write must also write the inline
// parity image (computable from the new data, so no read is needed for
// full-line writes); masked writes additionally read the old line. The
// catch-word reconstruction path re-reads the parity image, which only
// matters in degraded mode and defaults to 0.
func (s *XED) Cost() AccessCost {
	return AccessCost{
		DecodeLatencyNS:          1.0,
		ExtraWritesPerWrite:      1.0,
		ExtraReadsPerMaskedWrite: 1.0,
	}
}
