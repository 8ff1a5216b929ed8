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

// duoScratch is the per-goroutine codec workspace: the batch workspace
// (whose Decoder also serves scalar decodes), a slab sized to the last
// batch width, per-codeword result buffers, a codeword buffer and the
// column staging block for the transposed gather.
type duoScratch struct {
	ws       *rs.BatchWorkspace
	slab     *rs.Slab
	nchanged []int
	errs     []error
	word     []byte
	cols     [][64]byte // one staging column per codeword position
}

// ensure sizes the slab and result buffers for w codewords (a multiple
// of 8). The slab is rebuilt only when the width changes.
func (scr *duoScratch) ensure(n, w int) {
	if scr.slab == nil || scr.slab.W() != w {
		scr.slab = rs.NewSlab(n, w)
	}
	if cap(scr.nchanged) < w {
		scr.nchanged = make([]int, w)
		scr.errs = make([]error, w)
	}
	scr.nchanged = scr.nchanged[:w]
	scr.errs = scr.errs[:w]
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
		return &duoScratch{
			ws:   s.code.NewBatchWorkspace(),
			word: make([]byte, s.code.N),
			cols: make([][64]byte, s.code.N),
		}
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

// NewStored implements BufferedScheme: one data burst plus the extension
// beat (Xfer) carrying the two parity symbols per chip.
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

// Encode implements Scheme.
func (s *DUO) Encode(line []byte) *Stored {
	st := s.NewStored()
	s.EncodeInto(st, line)
	return st
}

// EncodeInto implements BufferedScheme.
func (s *DUO) EncodeInto(st *Stored, line []byte) {
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

// Decode implements Scheme: the controller decodes RS(18,16) per chip.
func (s *DUO) Decode(st *Stored) ([]byte, Claim) {
	line := make([]byte, s.org.LineBytes())
	return line, s.DecodeInto(line, st)
}

// DecodeInto implements BufferedScheme. Corrected symbol j = (beat, group)
// of chip c lands at line byte beat*(busWidth/8) + c*(Pins/8) + group, so
// chips write their line bytes directly and together cover every byte of
// dst.
func (s *DUO) DecodeInto(dst []byte, st *Stored) Claim {
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
		nerr, err := scr.ws.DecodeInto(word, word, nil)
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

// EncodeBatchInto implements BatchScheme. Encoding is dominated by the
// per-image burst split, so the batch call is the defining loop.
func (s *DUO) EncodeBatchInto(sts []*Stored, lines [][]byte) { loopEncodeBatch(s, sts, lines) }

// DecodeBatchInto implements BatchScheme on the slab path: per chip, the
// codewords of every image are transposed into one slab and certified by
// a single bitsliced syndrome sweep; only dirty codewords reach the
// scalar decoder. Results are identical to a DecodeInto loop.
func (s *DUO) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	CheckDecodeBatchArgs(dst, sts, claims)
	nimg := len(sts)
	if nimg == 0 {
		return
	}
	bb := s.pool.Get().(*duoScratch)
	defer s.pool.Put(bb)
	n, k := s.code.N, s.code.K
	bb.ensure(n, PadBatchWidth(nimg))
	g := s.groups()
	lineStride := s.org.ChipsPerRank * s.org.Pins / 8
	for i := 0; i < nimg; i++ {
		claims[i] = ClaimClean
		for j := range dst[i] {
			dst[i][j] = 0
		}
	}
	for chip := 0; chip < s.org.ChipsPerRank; chip++ {
		// Gather: assemble each image's codeword for this chip, staging
		// 64 images per group and writing whole transposed columns.
		for grp := 0; grp < bb.slab.Groups(); grp++ {
			lo := grp * 64
			hi := lo + 64
			if hi > nimg {
				hi = nimg
			}
			for j := 0; j < n; j++ {
				bb.cols[j] = [64]byte{}
			}
			for i := lo; i < hi; i++ {
				ci := sts[i].Chips[chip]
				s.chipSymbolsInto(bb.word[:k], ci.Data)
				for p := 0; p < 2; p++ {
					bb.word[k+p] = byte(ci.Xfer.Bits().GetBits(8*p, 8))
				}
				for j := 0; j < n; j++ {
					bb.cols[j][i-lo] = bb.word[j]
				}
			}
			for j := 0; j < n; j++ {
				bb.slab.SetColumn(j, grp, &bb.cols[j])
			}
		}
		bb.ws.DecodeBatch(bb.slab, nil, bb.nchanged, bb.errs)
		// Write back: clean and errored codewords pass the raw burst
		// through (identical bytes to the scalar paths); corrected ones
		// read their repaired data symbols out of the slab.
		base := chip * (s.org.Pins / 8)
		for i := 0; i < nimg; i++ {
			ci := sts[i].Chips[chip]
			switch {
			case bb.errs[i] != nil:
				claims[i] = ClaimDetected
				dram.OrChipInto(s.org, dst[i], chip, ci.Data)
			case bb.nchanged[i] == 0:
				dram.OrChipInto(s.org, dst[i], chip, ci.Data)
			default:
				if claims[i] != ClaimDetected {
					claims[i] = ClaimCorrected
				}
				for j := 0; j < k; j++ {
					dst[i][(j/g)*lineStride+base+j%g] = bb.slab.At(i, j)
				}
			}
		}
	}
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
