package ecc

import (
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/hamming"
)

// commodityOrgs are the builtin organizations of the per-chip schemes.
var commodityOrgs = []dram.Organization{dram.DDR4x16(), dram.DDR4x8(), dram.DDR4x4(), dram.DDR5x16()}

// TestDUOSyndromeTableMatchesCode checks DUO's stored-byte table on both
// organizations it supports: zero on every encoded image, and equal to
// SyndromesInto of each chip's codeword (data burst, then extension
// beat) under random multi-bit corruption.
func TestDUOSyndromeTableMatchesCode(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, org := range []dram.Organization{dram.DDR4x16(), dram.DDR5x16()} {
		s := NewDUO(org)
		st := s.NewStored()
		word, syn := make([]byte, s.code.N), make([]byte, s.code.NumParity())
		for trial := 0; trial < 100; trial++ {
			s.EncodeBatchInto([]*Stored{st}, [][]byte{randLine(rng, org.LineBytes())})
			for i := range st.Chips {
				if got := s.tab.Syndrome(st.ChipBytes(i)); got != 0 {
					t.Fatalf("%+v: encoded chip %d has syndrome %#x", org, i, got)
				}
			}
			FlipRandomStoredBits(rng, st, 1+rng.Intn(16))
			for i := range st.Chips {
				copy(word, st.Chips[i].Data.Bits)
				copy(word[s.code.K:], st.Chips[i].Xfer.Bits)
				s.code.SyndromesInto(syn, word)
				var want uint64
				for j, v := range syn {
					want |= uint64(v) << (8 * j)
				}
				if got := s.tab.Syndrome(st.ChipBytes(i)); got != want {
					t.Fatalf("%+v chip %d: table syndrome %#x, SyndromesInto %#x", org, i, got, want)
				}
			}
		}
	}
}

// TestHammingSyndromesMatchColumns checks the syndrome the Hamming
// schemes decode, CheckBits(data) XOR the stored check bits, on every
// organization each supports: zero on every encoded image, and under
// random multi-bit corruption equal to the XOR of the parity-check
// columns of the flipped bits (a data bit's column is CheckBits of that
// bit alone, a check bit's is its unit vector).
func TestHammingSyndromesMatchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type chipCode struct {
		s    Scheme
		code *hamming.Code
	}
	var cases []chipCode
	for _, org := range commodityOrgs {
		iecc := NewIECC(org)
		cases = append(cases, chipCode{iecc, iecc.code})
		if org.Pins != 4 {
			xed := NewXED(org)
			cases = append(cases, chipCode{xed, xed.code})
		}
	}
	for _, tc := range cases {
		st, clean := tc.s.NewStored(), tc.s.NewStored()
		unit := make([]byte, len(st.Chips[0].Data.Bits))
		for trial := 0; trial < 100; trial++ {
			tc.s.EncodeBatchInto([]*Stored{clean}, [][]byte{randLine(rng, tc.s.Org().LineBytes())})
			copy(st.buf, clean.buf)
			FlipRandomStoredBits(rng, st, 1+rng.Intn(16))
			for i := range st.Chips {
				c, e := &st.Chips[i], &clean.Chips[i]
				if syn := tc.code.CheckBits(e.Data.Bits) ^ storedCheck(e.OnDie); syn != 0 {
					t.Fatalf("%s %+v: encoded chip %d has syndrome %#x", tc.s.Name(), tc.s.Org(), i, syn)
				}
				want := storedCheck(c.OnDie) ^ storedCheck(e.OnDie)
				for j := 0; j < c.Data.Len(); j++ {
					if (c.Data.Bits[j/8]^e.Data.Bits[j/8])&(1<<(j%8)) != 0 {
						clear(unit)
						unit[j/8] = 1 << (j % 8)
						want ^= tc.code.CheckBits(unit)
					}
				}
				if got := tc.code.CheckBits(c.Data.Bits) ^ storedCheck(c.OnDie); got != want {
					t.Fatalf("%s %+v chip %d: syndrome %#x, column XOR %#x", tc.s.Name(), tc.s.Org(), i, got, want)
				}
			}
		}
	}

	// SECDED checks each beat of the line against its ECC-chip byte.
	s := NewSECDED(dram.DDR4x8ECC())
	st := s.NewStored()
	line := make([]byte, s.org.LineBytes())
	for trial := 0; trial < 100; trial++ {
		s.EncodeBatchInto([]*Stored{st}, [][]byte{randLine(rng, len(line))})
		for c := 0; c < s.org.ChipsPerRank; c++ {
			dram.JoinChip(&s.org, line, c, st.Chips[c].Data)
		}
		beatBytes := s.code.K / 8
		for beat, ck := range st.Chips[s.org.ChipsPerRank].Data.Bits {
			if syn := s.code.CheckBits(line[beat*beatBytes:(beat+1)*beatBytes]) ^ uint16(ck); syn != 0 {
				t.Fatalf("secded: encoded beat %d has syndrome %#x", beat, syn)
			}
		}
	}
}
