// Package core implements PAIR — the Pin-Aligned In-DRAM ECC architecture
// using the expandability of Reed-Solomon codes (Jeong, Kang, Yang;
// DAC 2020) — as an ecc.Scheme plus the supporting configuration and
// analysis surface the experiments use.
//
// # Construction
//
// One PAIR codeword protects one chip access. Its symbols are *aligned to
// DQ pins*: symbol p of the codeword is exactly the 8 bits pin p carries
// during the BL8 burst. An x16 access therefore contributes 16 data
// symbols; parity symbols live in the on-die redundancy region and are
// consumed by the in-die decoder — they never cross the pins.
//
// The code is an *expandable* (evaluation-view) Reed-Solomon code: the
// base configuration stores 2 parity symbols — RS(18,16), t=1 — and the
// vendor can raise the correction capability to t=2 (RS(20,16)) or beyond
// by storing additional evaluation symbols in the spare-column region,
// without rewriting a single already-programmed bit. The default
// configuration of the study is the expanded RS(20,16).
//
// # Why pin alignment matters
//
//   - A weak/faulty cell corrupts one bit => one symbol.
//   - A DQ-pin, TSV or serializer fault corrupts one pin's whole burst
//     => still one symbol.
//   - A burst error along a pin (consecutive beats) => one symbol.
//   - Widely distributed inherent faults land in different accesses, so
//     each codeword sees few bad symbols.
//
// Beat-aligned symbolizations (DUO's controller-side view) smear a pin
// fault across up to BurstLen symbols, which is the gap the paper's
// reliability results quantify.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/rs"
	"pair/internal/syndrome"
)

// Config selects a PAIR operating point.
type Config struct {
	// BaseParity is the number of parity symbols in the base (always
	// stored) code; the architectural baseline is 2 (t=1).
	BaseParity int
	// Expansion is the number of additional evaluation symbols stored in
	// the spare-column region; the study's default is 2 (raising the code
	// to t=2).
	Expansion int
	// DecodeLatencyNS is the in-die decoder latency added to reads.
	DecodeLatencyNS float64
}

// DefaultConfig is the headline PAIR configuration: RS(20,16) via a
// 2-symbol base parity plus a 2-symbol expansion.
func DefaultConfig() Config {
	return Config{BaseParity: 2, Expansion: 2, DecodeLatencyNS: 2.0}
}

// BaseConfig is PAIR without expansion: RS(18,16), t=1.
func BaseConfig() Config {
	return Config{BaseParity: 2, Expansion: 0, DecodeLatencyNS: 2.0}
}

// Scheme is the PAIR ecc.Scheme.
type Scheme struct {
	org  dram.Organization
	cfg  Config
	full *rs.Code        // (pins+BaseParity+Expansion, pins), evaluation view
	tab  *syndrome.Table // a chip's stored bytes (Data, OnDie) -> syndromes
	name string
	pool sync.Pool // *pairScratch per-goroutine codec workspace
}

// pairScratch is the per-goroutine codec workspace on the full code: an
// RS decoder, a codeword buffer and a burst for corrected symbols.
type pairScratch struct {
	dec  *rs.Decoder
	word []byte
	b    dram.Region
}

// New builds a PAIR scheme on the given organization.
func New(org dram.Organization, cfg Config) (*Scheme, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	if org.BurstLen%8 != 0 {
		return nil, fmt.Errorf("core: PAIR pin symbols need a burst length divisible by 8, got BL%d", org.BurstLen)
	}
	if cfg.BaseParity < 1 {
		return nil, fmt.Errorf("core: base parity %d < 1", cfg.BaseParity)
	}
	if cfg.Expansion < 0 {
		return nil, fmt.Errorf("core: negative expansion %d", cfg.Expansion)
	}
	k := org.Pins * org.BurstLen / 8
	base, err := rs.NewEvaluation(k+cfg.BaseParity, k)
	if err != nil {
		return nil, fmt.Errorf("core: base code: %w", err)
	}
	full, err := base.Expand(cfg.Expansion)
	if err != nil {
		return nil, fmt.Errorf("core: expansion: %w", err)
	}
	if full.NumParity() > syndrome.WordBytes {
		return nil, fmt.Errorf("core: %d parity symbols exceed the %d-byte syndrome word", full.NumParity(), syndrome.WordBytes)
	}
	name := "pair"
	if cfg.Expansion == 0 {
		name = "pair-base"
	}
	s := &Scheme{org: org, cfg: cfg, full: full, name: name}
	// Data bit (pin, beat) is bit beat%8 of symbol pin*spp + beat/8, and
	// on-die byte j is parity symbol k+j.
	data := org.AccessBits()
	s.tab = syndrome.New(data/8+full.NumParity(), func(bit int) uint64 {
		if bit < data {
			pin, beat := bit%org.Pins, bit/org.Pins
			return full.Column(pin*s.symbolsPerPin()+beat/8, 1<<(beat%8))
		}
		bit -= data
		return full.Column(s.k()+bit/8, 1<<(bit%8))
	})
	s.pool.New = func() any {
		return &pairScratch{
			dec:  full.NewDecoder(),
			word: make([]byte, full.N),
			b:    dram.NewRegion(org.Pins, org.BurstLen),
		}
	}
	return s, nil
}

// MustNew is New, panicking on error.
func MustNew(org dram.Organization, cfg Config) *Scheme {
	s, err := New(org, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements ecc.Scheme.
func (s *Scheme) Name() string { return s.name }

// symbolsPerPin returns how many 8-bit symbols one pin carries per burst
// (1 for BL8, 2 for DDR5 BL16).
func (s *Scheme) symbolsPerPin() int { return s.org.BurstLen / 8 }

// k returns the data symbols per codeword.
func (s *Scheme) k() int { return s.org.Pins * s.symbolsPerPin() }

// symbols returns the pin-major view of a chip burst over syms (length
// k): symbol pin*spp+part is the 8 bits the pin carries during beats
// [8*part, 8*part+8). Transposing a burst into it gathers the data
// symbols; transposing it into a burst writes them back.
func (s *Scheme) symbols(syms []byte) dram.Region {
	return dram.Region{Pins: s.org.BurstLen, Beats: s.org.Pins, Bits: syms}
}

// Org implements ecc.Scheme.
func (s *Scheme) Org() dram.Organization { return s.org }

// Config returns the operating point.
func (s *Scheme) Config() Config { return s.cfg }

// CodewordLength returns the total symbols per codeword (data + base
// parity + expansion).
func (s *Scheme) CodewordLength() int { return s.full.N }

// T returns the guaranteed symbol-correction capability.
func (s *Scheme) T() int { return s.full.T }

// parityBits returns the on-die redundancy size in bits per access.
func (s *Scheme) parityBits() int {
	return (s.cfg.BaseParity + s.cfg.Expansion) * 8
}

// NewStored implements ecc.Scheme: one data burst plus the on-die parity
// region per chip, parity symbol j in on-die byte j.
func (s *Scheme) NewStored() *ecc.Stored {
	return ecc.NewImage(s.org, s.org.ChipsPerRank, s.parityBits(), 0)
}

// EncodeBatchInto implements ecc.Scheme. Each chip's access is encoded
// into one pin-aligned codeword; parity symbols go to the on-die region
// (base parity first, then expansion symbols).
func (s *Scheme) EncodeBatchInto(sts []*ecc.Stored, lines [][]byte) {
	ecc.EncodeEach(sts, lines, s.encode)
}

// encode builds one image.
func (s *Scheme) encode(st *ecc.Stored, line []byte) {
	scr := s.pool.Get().(*pairScratch)
	word := scr.word
	k := s.k()
	for i := range st.Chips {
		c := &st.Chips[i]
		dram.SplitChip(&s.org, line, i, c.Data)
		dram.Transpose(s.symbols(word[:k]), c.Data)
		s.full.EncodeTo(word[:k], word)
		copy(c.OnDie.Bits, word[k:])
	}
	s.pool.Put(scr)
}

// DecodeBatchInto implements ecc.Scheme: each chip decodes its
// pin-aligned codeword in-die with the full (expanded) decoder.
func (s *Scheme) DecodeBatchInto(dst [][]byte, sts []*ecc.Stored, claims []ecc.Claim) {
	ecc.DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line without erasures.
func (s *Scheme) decode(dst []byte, st *ecc.Stored) ecc.Claim {
	return s.decodeErased(dst, st, nil)
}

// decodeErased recovers one line with optional per-chip erasure symbol
// lists (see WithSparedPins). A chip whose stored bytes have a zero
// syndrome joins the line as stored, with no transpose and no decoder
// call; a dirty chip's pin symbols are corrected from its syndromes.
func (s *Scheme) decodeErased(dst []byte, st *ecc.Stored, erasures map[int][]int) ecc.Claim {
	claim := ecc.ClaimClean
	k := s.k()
	var scr *pairScratch
	for i := range st.Chips {
		c := &st.Chips[i]
		syn := s.tab.Syndrome(st.ChipBytes(i))
		if syn == 0 {
			dram.JoinChip(&s.org, dst, i, c.Data)
			continue
		}
		if scr == nil {
			scr = s.pool.Get().(*pairScratch)
		}
		var sb [syndrome.WordBytes]byte
		binary.LittleEndian.PutUint64(sb[:], syn)
		word := scr.word
		dram.Transpose(s.symbols(word[:k]), c.Data)
		copy(word[k:], c.OnDie.Bits)
		if _, err := scr.dec.Correct(word, sb[:s.full.NumParity()], erasures[i]); err != nil {
			claim = ecc.ClaimDetected
			// Pass the raw data along with the flag (word is unspecified
			// after a decode failure).
			dram.JoinChip(&s.org, dst, i, c.Data)
			continue
		}
		if claim != ecc.ClaimDetected {
			claim = ecc.ClaimCorrected
		}
		dram.Transpose(scr.b, s.symbols(word[:k]))
		dram.JoinChip(&s.org, dst, i, scr.b)
	}
	if scr != nil {
		s.pool.Put(scr)
	}
	return claim
}

// StorageOverhead implements ecc.Scheme: parity bits per data bits.
func (s *Scheme) StorageOverhead() float64 {
	return float64(s.parityBits()) / float64(s.org.AccessBits())
}

// Cost implements ecc.Scheme: PAIR changes nothing on the bus — parity is
// produced and consumed inside the die and reads keep BL8. The in-die
// decoder adds a small fixed latency; masked writes trigger the same
// internal read-modify-write every per-access in-DRAM code needs.
func (s *Scheme) Cost() ecc.AccessCost {
	return ecc.AccessCost{
		DecodeLatencyNS:          s.cfg.DecodeLatencyNS,
		ExtraReadsPerMaskedWrite: 1.0,
	}
}

// SparedScheme is PAIR with a per-device map of known-bad DQ pins
// (vendor repair/test data). Symbols carried by spared pins are decoded
// as erasures, which stretches the budget from 2t symbol errors to
// 2*errors + erasures <= n-k: the default RS(20,16) then rides out two
// dead pins *plus* one fresh symbol error per access.
type SparedScheme struct {
	*Scheme
	erasures map[int][]int // chip -> erased symbol positions
	npins    int
}

// WithSparedPins wraps the scheme with spared-pin knowledge. spared maps
// chip index to the list of its known-bad pins. The wrapper shares the
// underlying encoder (stored images are identical; sparing is purely a
// decode-side hint).
func (s *Scheme) WithSparedPins(spared map[int][]int) (*SparedScheme, error) {
	erasures := make(map[int][]int, len(spared))
	npins := 0
	spp := s.symbolsPerPin()
	for chip, pins := range spared {
		if chip < 0 || chip >= s.org.ChipsPerRank {
			return nil, fmt.Errorf("core: spared chip %d out of range", chip)
		}
		seen := make(map[int]bool, len(pins))
		for _, p := range pins {
			if p < 0 || p >= s.org.Pins {
				return nil, fmt.Errorf("core: spared pin %d out of range", p)
			}
			if seen[p] {
				return nil, fmt.Errorf("core: chip %d spares pin %d twice", chip, p)
			}
			seen[p] = true
			for part := 0; part < spp; part++ {
				erasures[chip] = append(erasures[chip], p*spp+part)
			}
			npins++
		}
		if len(erasures[chip]) > s.full.NumParity() {
			return nil, fmt.Errorf("core: chip %d spares %d symbols, exceeding the %d-symbol parity budget",
				chip, len(erasures[chip]), s.full.NumParity())
		}
	}
	return &SparedScheme{Scheme: s, erasures: erasures, npins: npins}, nil
}

// Name implements ecc.Scheme.
func (s *SparedScheme) Name() string { return s.Scheme.name + "-spared" }

// DecodeBatchInto implements ecc.Scheme with the spared pins erased. The
// override matters: the promoted Scheme method would decode without
// erasures.
func (s *SparedScheme) DecodeBatchInto(dst [][]byte, sts []*ecc.Stored, claims []ecc.Claim) {
	ecc.DecodeEach(dst, sts, claims, s.decode)
}

// decode recovers one line with the spared pins erased.
func (s *SparedScheme) decode(dst []byte, st *ecc.Stored) ecc.Claim {
	return s.decodeErased(dst, st, s.erasures)
}

// SparedPins returns the number of pins marked bad.
func (s *SparedScheme) SparedPins() int { return s.npins }

// ExpandStored computes the expansion symbols for an image encoded by a
// base-only scheme and returns the image upgraded to this scheme's
// expansion level. The base parity bits are preserved verbatim — the
// demonstration of in-place expandability. The source scheme must share
// this scheme's organization and base parity, and the image must be
// shaped like the source scheme's own.
func (s *Scheme) ExpandStored(baseScheme *Scheme, st *ecc.Stored) (*ecc.Stored, error) {
	if baseScheme.org != s.org || baseScheme.cfg.BaseParity != s.cfg.BaseParity {
		return nil, fmt.Errorf("core: incompatible base scheme")
	}
	if baseScheme.cfg.Expansion != 0 {
		return nil, fmt.Errorf("core: source scheme already expanded")
	}
	if err := ecc.CheckShape(st, baseScheme.NewStored()); err != nil {
		return nil, fmt.Errorf("core: image is not a %s image: %w", baseScheme.Name(), err)
	}
	out := s.NewStored()
	k := s.k()
	cwBase := make([]byte, baseScheme.full.N)
	for i := range st.Chips {
		c := &st.Chips[i]
		dram.Transpose(s.symbols(cwBase[:k]), c.Data)
		copy(cwBase[k:], c.OnDie.Bits)
		cwFull, err := baseScheme.full.ExtendCodeword(cwBase, s.full)
		if err != nil {
			return nil, err
		}
		copy(out.Chips[i].Data.Bits, c.Data.Bits)
		copy(out.Chips[i].OnDie.Bits, cwFull[k:])
	}
	return out, nil
}
