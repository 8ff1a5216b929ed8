package ecc

import (
	"bytes"
	"sync"

	"pair/internal/dram"
	"pair/internal/rs"
)

// DUORank models DUO in its *original* habitat (Gong et al., HPCA 2018):
// a nine-chip x8 ECC DIMM where every chip's 8 on-die redundancy bits per
// 64-bit access are forwarded to the controller on a burst-extension
// beat, and the controller assembles one long rank-level Reed-Solomon
// codeword per access:
//
//	64 data symbols   (8 data chips x 8 beat-aligned byte symbols)
//	 8 parity symbols (the ECC chip's data beats)
//	 9 parity symbols (each chip's forwarded on-die redundancy)
//	=> RS(81,64), t = 8
//
// That is strong enough to stomach a whole-chip failure — but only via
// *erasure* decoding: a dead chip contributes nine bad symbols, one more
// than t. The decoder therefore retries chip-erasure hypotheses after a
// failed direct decode (DUO's degraded-mode story); hypotheses that
// decode successfully but disagree with each other are reported as DUE
// rather than guessed between.
//
// Included alongside the commodity `duo` adaptation so the study shows
// both ends: the rank-level original (strong against chip-grain faults,
// still beat-aligned) and the in-DRAM-budget adaptation the abstract's
// comparison implies.
type DUORank struct {
	org      dram.Organization
	code     *rs.Code
	erasures [][]int   // per-chip erasure hypothesis, built once
	scratch  sync.Pool // *duoRankScratch
}

// duoRankScratch is the per-goroutine codec workspace: an RS decoder plus
// the assembled, corrected and agreed codeword buffers, so the retry loop
// reuses one decode state across all chip hypotheses.
type duoRankScratch struct {
	dec       *rs.Decoder
	word      []byte
	corrected []byte
	agreed    []byte
}

// NewDUORank returns the rank-level DUO scheme; the organization must be
// the nine-chip x8 ECC DIMM.
func NewDUORank(org dram.Organization) *DUORank {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	if org.Pins != 8 || org.ECCChips != 1 {
		panic("ecc: DUORank requires a 9-chip x8 ECC DIMM organization")
	}
	n := org.TotalChips()*org.BurstLen + org.TotalChips() // 72 beat symbols + 9 forwarded
	k := org.ChipsPerRank * org.BurstLen                  // 64 data symbols
	s := &DUORank{org: org, code: rs.MustNew(n, k)}
	s.erasures = make([][]int, org.TotalChips())
	for c := range s.erasures {
		s.erasures[c] = s.chipErasures(c)
	}
	s.scratch.New = func() any {
		return &duoRankScratch{
			dec:       s.code.NewDecoder(),
			word:      make([]byte, s.code.N),
			corrected: make([]byte, s.code.N),
			agreed:    make([]byte, s.code.K),
		}
	}
	return s
}

// Name implements Scheme.
func (s *DUORank) Name() string { return "duo-rank" }

// Org implements Scheme.
func (s *DUORank) Org() dram.Organization { return s.org }

// NewStored implements Scheme. Chips[0..7] are data chips; Chips[8] is
// the ECC chip. Each chip's Xfer burst (8 pins x 1 beat) carries one
// parity symbol; the ECC chip's data beats carry eight more.
func (s *DUORank) NewStored() *Stored { return NewImage(s.org, s.org.TotalChips(), 0, 1) }

// EncodeBatchInto implements Scheme.
func (s *DUORank) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, s.encode) }

// encode builds one image: the data chips' bursts, then the 17 parity
// symbols of the rank-level codeword over their beat bytes. An x8 chip
// moves one byte per beat, so its burst's bytes are its beat symbols.
func (s *DUORank) encode(st *Stored, line []byte) {
	scr := s.scratch.Get().(*duoRankScratch)
	defer s.scratch.Put(scr)
	for c := 0; c < s.org.ChipsPerRank; c++ {
		dram.SplitChip(&s.org, line, c, st.Chips[c].Data)
	}
	s.assembleInto(scr.word, st)
	s.code.EncodeTo(scr.word[:s.code.K], scr.word)
	parity := scr.word[s.code.K:] // 17 symbols
	eccChip := &st.Chips[s.org.TotalChips()-1]
	copy(eccChip.Data.Bits, parity[:8])
	for c := range st.Chips {
		st.Chips[c].Xfer.Bits[0] = parity[8+c]
	}
}

// assembleInto builds the 81-symbol received word from a stored image:
// each data chip's burst, the ECC chip's burst, then every chip's
// forwarded symbol.
func (s *DUORank) assembleInto(word []byte, st *Stored) {
	for c := range st.Chips {
		copy(word[c*s.org.BurstLen:], st.Chips[c].Data.Bits)
		word[s.code.K+8+c] = st.Chips[c].Xfer.Bits[0]
	}
}

// chipErasures returns the symbol positions chip c occupies in the
// codeword (its data/parity beats plus its forwarded symbol).
func (s *DUORank) chipErasures(c int) []int {
	out := make([]int, 0, s.org.BurstLen+1)
	if c < s.org.ChipsPerRank {
		for beat := 0; beat < s.org.BurstLen; beat++ {
			out = append(out, c*s.org.BurstLen+beat)
		}
	} else {
		for beat := 0; beat < s.org.BurstLen; beat++ {
			out = append(out, s.code.K+beat)
		}
	}
	return append(out, s.code.K+8+c)
}

// DecodeBatchInto implements Scheme.
func (s *DUORank) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line: direct decode first; on failure, retry under
// each single-chip erasure hypothesis and accept only a unanimous answer.
func (s *DUORank) decode(dst []byte, st *Stored) Claim {
	scr := s.scratch.Get().(*duoRankScratch)
	defer s.scratch.Put(scr)
	word := scr.word
	s.assembleInto(word, st)
	if nerr, err := scr.dec.DecodeInto(scr.corrected, word, nil); err == nil {
		s.extractInto(dst, scr.corrected)
		if nerr > 0 {
			return ClaimCorrected
		}
		return ClaimClean
	}
	// Chip-erasure hypotheses (degraded mode).
	agreed := false
	for c := 0; c < s.org.TotalChips(); c++ {
		if _, err := scr.dec.DecodeInto(scr.corrected, word, s.erasures[c]); err != nil {
			continue
		}
		data := scr.corrected[:s.code.K]
		if !agreed {
			copy(scr.agreed, data)
			agreed = true
		} else if !bytes.Equal(scr.agreed, data) {
			s.extractInto(dst, word)
			return ClaimDetected
		}
	}
	if agreed {
		s.extractInto(dst, scr.agreed)
		return ClaimCorrected
	}
	s.extractInto(dst, word)
	return ClaimDetected
}

// extractInto writes the cache line carried by the data symbols of cw
// into dst. Each x8 chip moves one byte per beat, so symbol (chip c,
// beat b) is line byte b*ChipsPerRank + c.
func (s *DUORank) extractInto(dst, cw []byte) {
	for c := 0; c < s.org.ChipsPerRank; c++ {
		for beat := 0; beat < s.org.BurstLen; beat++ {
			dst[beat*s.org.ChipsPerRank+c] = cw[c*s.org.BurstLen+beat]
		}
	}
}

// StorageOverhead implements Scheme: the ninth chip plus every chip's
// on-die redundancy region, per data bit.
func (s *DUORank) StorageOverhead() float64 {
	perChipOnDie := float64(s.org.Pins) // 8 bits per 64-bit access
	dataBits := float64(s.org.ChipsPerRank) * float64(s.org.AccessBits())
	redundancy := float64(s.org.AccessBits()) + // ECC chip data beats
		perChipOnDie*float64(s.org.TotalChips()) // forwarded symbols
	return redundancy / dataBits
}

// Cost implements Scheme: burst extension on the 72-bit bus plus a long
// rank-level decode.
func (s *DUORank) Cost() AccessCost {
	return AccessCost{
		ExtraReadBeats:           1,
		ExtraWriteBeats:          1,
		DecodeLatencyNS:          6.0,
		ExtraReadsPerMaskedWrite: 1.0,
	}
}
