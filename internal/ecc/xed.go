package ecc

import (
	"sync"

	"pair/internal/bitvec"
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
	rec  sync.Pool // *dram.Burst reconstruction scratch
}

// NewXED returns the XED scheme on the given organization.
func NewXED(org dram.Organization) *XED {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	s := &XED{org: org, code: hamming.MustSEC(org.AccessBits())}
	s.rec.New = func() any { return dram.NewBurst(org.Pins, org.BurstLen) }
	return s
}

// Name implements Scheme.
func (s *XED) Name() string { return "xed" }

// Org implements Scheme.
func (s *XED) Org() dram.Organization { return s.org }

// NewStored implements Scheme: Chips[0..ChipsPerRank) are the data
// chips; Chips[ChipsPerRank] is the inline parity image.
func (s *XED) NewStored() *Stored {
	st := &Stored{Org: s.org, Chips: make([]*ChipImage, s.org.ChipsPerRank+1)}
	for i := range st.Chips {
		st.Chips[i] = &ChipImage{
			Data:  dram.NewBurst(s.org.Pins, s.org.BurstLen),
			OnDie: bitvec.New(s.code.M),
		}
	}
	return st
}

// EncodeBatchInto implements Scheme.
func (s *XED) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image: the data chips, their detector bits and the
// parity image over them.
func (s *XED) encode(st *Stored, line []byte) {
	nData := s.org.ChipsPerRank
	parity := st.Chips[nData]
	for i := 0; i < nData; i++ {
		ci := st.Chips[i]
		dram.SplitChipInto(s.org, line, i, ci.Data)
		s.setDetectorBits(ci)
		if i == 0 {
			parity.Data.CopyFrom(ci.Data)
		} else {
			parity.Data.Xor(ci.Data)
		}
	}
	s.setDetectorBits(parity)
}

// setDetectorBits writes the on-die check bits of the image's burst.
func (s *XED) setDetectorBits(ci *ChipImage) {
	ck := s.code.CheckBits(ci.Data.Bits())
	ci.OnDie.Clear()
	ci.OnDie.OrBits(0, uint64(ck), s.code.M)
}

// flagged reports whether the chip's detector fires (nonzero syndrome):
// the data's recomputed check bits disagree with the stored ones.
func (s *XED) flagged(ci *ChipImage) bool {
	return s.code.CheckBits(ci.Data.Bits()) != uint16(ci.OnDie.GetBits(0, s.code.M))
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
		if s.flagged(st.Chips[i]) {
			flaggedChip = i
			nFlagged++
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	switch {
	case nFlagged == 0:
		// Nothing signalled: data passes through. The rank parity is NOT
		// verified on ordinary reads (faithful to XED's design), so an
		// aliased pattern sails through as SDC.
		for i := 0; i < nData; i++ {
			dram.OrChipInto(s.org, dst, i, st.Chips[i].Data)
		}
		return ClaimClean
	case nFlagged == 1:
		parityImg := st.Chips[nData]
		if s.flagged(parityImg) {
			// Reconstruction source is itself suspect.
			for i := 0; i < nData; i++ {
				dram.OrChipInto(s.org, dst, i, st.Chips[i].Data)
			}
			return ClaimDetected
		}
		rec := s.rec.Get().(*dram.Burst)
		rec.CopyFrom(parityImg.Data)
		for i := 0; i < nData; i++ {
			if i != flaggedChip {
				rec.Xor(st.Chips[i].Data)
				dram.OrChipInto(s.org, dst, i, st.Chips[i].Data)
			}
		}
		dram.OrChipInto(s.org, dst, flaggedChip, rec)
		s.rec.Put(rec)
		return ClaimCorrected
	default:
		for i := 0; i < nData; i++ {
			dram.OrChipInto(s.org, dst, i, st.Chips[i].Data)
		}
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
