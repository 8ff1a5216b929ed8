package ecc

import (
	"encoding/binary"
	"sync"

	"pair/internal/dram"
	"pair/internal/rs"
	"pair/internal/syndrome"
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
	tab  *syndrome.Table // a chip's stored bytes (its codeword) -> syndromes
	pool sync.Pool       // *duoScratch per-goroutine codec workspace
}

// duoScratch is the per-goroutine codec workspace: an RS decoder and a
// codeword buffer.
type duoScratch struct {
	dec  *rs.Decoder
	word []byte
}

// NewDUO returns the DUO scheme on the given organization, which must be
// x16: the two parity symbols ride one extension beat of 16 pins.
func NewDUO(org dram.Organization) *DUO {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	if org.Pins != 16 {
		panic("ecc: DUO's two parity symbols need a 16-pin extension beat")
	}
	k := org.AccessBits() / 8
	s := &DUO{org: org, code: rs.MustNew(k+2, k)}
	// A chip's stored bytes, its data burst then the extension beat, are
	// its codeword symbols in order.
	s.tab = syndrome.New(s.code.N, func(bit int) uint64 { return s.code.Column(bit/8, 1<<(bit%8)) })
	s.pool.New = func() any {
		return &duoScratch{dec: s.code.NewDecoder(), word: make([]byte, s.code.N)}
	}
	return s
}

// Name implements Scheme.
func (s *DUO) Name() string { return "duo" }

// Org implements Scheme.
func (s *DUO) Org() dram.Organization { return s.org }

// NewStored implements Scheme: one data burst plus the extension beat
// (Xfer) carrying the two parity symbols per chip.
func (s *DUO) NewStored() *Stored { return NewImage(s.org, s.org.ChipsPerRank, 0, 1) }

// EncodeBatchInto implements Scheme.
func (s *DUO) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image: per chip, the data burst and the RS(18,16)
// parity of its beat-aligned symbols. Symbol (beat, group) is the byte on
// pins [8g, 8g+8) during beat b, which is stored byte beat*groups+group of
// the burst, so the burst's bytes are the data symbols as they are.
func (s *DUO) encode(st *Stored, line []byte) {
	scr := s.pool.Get().(*duoScratch)
	for i := range st.Chips {
		c := &st.Chips[i]
		dram.SplitChip(&s.org, line, i, c.Data)
		s.code.EncodeTo(c.Data.Bits, scr.word)
		// The two parity symbols travel on the extension beat.
		copy(c.Xfer.Bits, scr.word[s.code.K:])
	}
	s.pool.Put(scr)
}

// DecodeBatchInto implements Scheme: the controller decodes RS(18,16)
// per chip access.
func (s *DUO) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line: a chip whose stored bytes have a zero
// syndrome joins the line as stored; a dirty chip is corrected from its
// syndromes, and its corrected data symbols are a burst in storage order.
func (s *DUO) decode(dst []byte, st *Stored) Claim {
	claim := ClaimClean
	var scr *duoScratch
	for i := range st.Chips {
		c := &st.Chips[i]
		b := st.ChipBytes(i)
		syn := s.tab.Syndrome(b)
		if syn == 0 {
			dram.JoinChip(&s.org, dst, i, c.Data)
			continue
		}
		if scr == nil {
			scr = s.pool.Get().(*duoScratch)
		}
		var sb [syndrome.WordBytes]byte
		binary.LittleEndian.PutUint64(sb[:], syn)
		copy(scr.word, b)
		if _, err := scr.dec.Correct(scr.word, sb[:s.code.NumParity()], nil); err != nil {
			claim = ClaimDetected
			// Pass the raw data along with the flag (word is unspecified
			// after a decode failure).
			dram.JoinChip(&s.org, dst, i, c.Data)
			continue
		}
		if claim != ClaimDetected {
			claim = ClaimCorrected
		}
		corrected := c.Data
		corrected.Bits = scr.word[:s.code.K]
		dram.JoinChip(&s.org, dst, i, corrected)
	}
	if scr != nil {
		s.pool.Put(scr)
	}
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
