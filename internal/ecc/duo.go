package ecc

import (
	"sync"

	"pair/internal/dram"
	"pair/internal/rs"
)

// DUO models the "Dual Use of On-chip redundancy" idea (Gong et al.,
// HPCA 2018) adapted to the commodity x16 context of the PAIR study
// (reconstruction note: original DUO targets x4 ECC DIMMs; the PAIR
// comparison gives the DUO *technique* — forward the on-die redundancy to
// the controller over extension beats and decode a longer Reed-Solomon
// code there — the same storage budget as PAIR, so the contrast isolates
// symbol alignment, which is the paper's point).
//
// Mechanics per chip access:
//
//   - The 128 data bits form 16 byte symbols in *beat-aligned* order:
//     symbol (beat, group) is the byte on pins [8g, 8g+8) during beat b.
//     That is how data arrives at the controller, so it is the natural —
//     and in the paper's analysis, the fatally naive — symbolization.
//   - Two parity symbols (the chip's 16 redundancy bits) are transferred
//     on a ninth burst beat (BL8 -> BL9, DUO's burst-extension trick)
//     and the controller decodes RS(18,16), t=1, per chip access.
//
// Consequence: a DQ-pin fault touches one bit of its byte group in every
// beat — up to nine symbols — and overwhelms the decoder, while PAIR's
// pin-aligned symbols confine the same physical event to one symbol.
type DUO struct {
	org  dram.Organization
	code *rs.Code
	pool sync.Pool // *duoScratch per-goroutine codec workspace
}

// duoScratch is the per-goroutine codec workspace: an RS decoder and a
// codeword buffer.
type duoScratch struct {
	dec  *rs.Decoder
	word []byte
}

// NewDUO returns the DUO scheme on the given organization (pins must be a
// multiple of 8 so beat-aligned byte symbols exist).
func NewDUO(org dram.Organization) *DUO {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	if org.Pins%8 != 0 {
		panic("ecc: DUO requires a multiple of 8 pins for byte symbols")
	}
	k := org.AccessBits() / 8
	s := &DUO{org: org, code: rs.MustNew(k+2, k)}
	s.pool.New = func() any {
		return &duoScratch{dec: s.code.NewDecoder(), word: make([]byte, s.code.N)}
	}
	return s
}

// Name implements Scheme.
func (s *DUO) Name() string { return "duo" }

// Org implements Scheme.
func (s *DUO) Org() dram.Organization { return s.org }

// groups returns the number of byte groups per beat.
func (s *DUO) groups() int { return s.org.Pins / 8 }

// chipSymbolsInto extracts the beat-aligned data symbols of a chip access
// into syms (length K). Symbol (beat, group) occupies bits
// [8*(beat*groups+group), +8) of the burst's bit vector — Pins is a
// multiple of 8 — so extraction is a sequential byte read.
func (s *DUO) chipSymbolsInto(syms []byte, b *dram.Burst) {
	bits := b.Bits()
	for j := range syms {
		syms[j] = byte(bits.GetBits(8*j, 8))
	}
}

// NewStored implements Scheme: one data burst plus the extension beat
// (Xfer) carrying the two parity symbols per chip.
func (s *DUO) NewStored() *Stored {
	st := &Stored{Org: s.org, Chips: make([]*ChipImage, s.org.ChipsPerRank)}
	for i := range st.Chips {
		st.Chips[i] = &ChipImage{
			Data: dram.NewBurst(s.org.Pins, s.org.BurstLen),
			Xfer: dram.NewBurst(s.org.Pins, 1),
		}
	}
	return st
}

// EncodeBatchInto implements Scheme.
func (s *DUO) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image: per chip, the data burst and the RS(18,16)
// parity of its beat-aligned symbols.
func (s *DUO) encode(st *Stored, line []byte) {
	scr := s.pool.Get().(*duoScratch)
	word := scr.word
	for i, ci := range st.Chips {
		dram.SplitChipInto(s.org, line, i, ci.Data)
		s.chipSymbolsInto(word[:s.code.K], ci.Data)
		s.code.EncodeTo(word[:s.code.K], word)
		// The two parity symbols travel on the extension beat.
		xb := ci.Xfer.Bits()
		xb.Clear()
		for p := 0; p < 2; p++ {
			xb.OrBits(8*p, uint64(word[s.code.K+p]), 8)
		}
	}
	s.pool.Put(scr)
}

// DecodeBatchInto implements Scheme: the controller decodes RS(18,16)
// per chip access.
func (s *DUO) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line. Corrected symbol j = (beat, group) of chip c
// lands at line byte beat*(busWidth/8) + c*(Pins/8) + group, so chips
// write their line bytes directly and together cover every byte of dst.
func (s *DUO) decode(dst []byte, st *Stored) Claim {
	claim := ClaimClean
	g := s.groups()
	lineStride := s.org.ChipsPerRank * s.org.Pins / 8
	scr := s.pool.Get().(*duoScratch)
	word := scr.word
	for i, ci := range st.Chips {
		bits := ci.Data.Bits()
		s.chipSymbolsInto(word[:s.code.K], ci.Data)
		for p := 0; p < 2; p++ {
			word[s.code.K+p] = byte(ci.Xfer.Bits().GetBits(8*p, 8))
		}
		nerr, err := scr.dec.DecodeInto(word, word, nil)
		base := i * (s.org.Pins / 8)
		if err != nil {
			claim = ClaimDetected
			// Pass the raw data along with the flag (word is unspecified
			// after a decode failure, so re-read the stored burst).
			for j := 0; j < s.code.K; j++ {
				dst[(j/g)*lineStride+base+j%g] = byte(bits.GetBits(8*j, 8))
			}
		} else {
			if nerr > 0 && claim != ClaimDetected {
				claim = ClaimCorrected
			}
			for j := 0; j < s.code.K; j++ {
				dst[(j/g)*lineStride+base+j%g] = word[j]
			}
		}
	}
	s.pool.Put(scr)
	return claim
}

// StorageOverhead implements Scheme: 16 redundancy bits per 128 data bits.
func (s *DUO) StorageOverhead() float64 {
	return float64(2*8) / float64(s.org.AccessBits())
}

// Cost implements Scheme: every access (read and write) carries one
// extension beat; the controller-side long-codeword decode adds latency.
func (s *DUO) Cost() AccessCost {
	return AccessCost{
		ExtraReadBeats:           1,
		ExtraWriteBeats:          1,
		DecodeLatencyNS:          4.0,
		ExtraReadsPerMaskedWrite: 1.0,
	}
}
