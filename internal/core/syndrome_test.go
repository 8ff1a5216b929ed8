package core

import (
	"math/rand"
	"strings"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
)

// codeSyndromes packs the syndromes SyndromesInto computes on chip i's
// pin-symbol word, syndrome j in byte j: the reference the stored-byte
// table must reproduce.
func codeSyndromes(s *Scheme, st *ecc.Stored, i int) uint64 {
	k := s.k()
	word, syn := make([]byte, s.full.N), make([]byte, s.full.NumParity())
	dram.Transpose(s.symbols(word[:k]), st.Chips[i].Data)
	copy(word[k:], st.Chips[i].OnDie.Bits)
	s.full.SyndromesInto(syn, word)
	var packed uint64
	for j, v := range syn {
		packed |= uint64(v) << (8 * j)
	}
	return packed
}

// TestSyndromeTableMatchesCode checks PAIR's stored-byte table against
// the RS code on every commodity organization at expansion 0-4 and on a
// spared scheme: zero on every encoded image, and equal to SyndromesInto
// of each chip's pin-symbol word under random multi-bit corruption.
func TestSyndromeTableMatchesCode(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	orgs := []dram.Organization{dram.DDR4x16(), dram.DDR4x8(), dram.DDR4x4(), dram.DDR5x16()}
	var cases []*Scheme
	for _, org := range orgs {
		for exp := 0; exp <= 4; exp++ {
			cases = append(cases, MustNew(org, Config{BaseParity: 2, Expansion: exp}))
		}
	}
	spared, err := MustNew(dram.DDR4x16(), DefaultConfig()).WithSparedPins(map[int][]int{1: {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, spared.Scheme)
	for _, s := range cases {
		st := s.NewStored()
		for trial := 0; trial < 60; trial++ {
			s.EncodeBatchInto([]*ecc.Stored{st}, [][]byte{randLine(rng, s.Org().LineBytes())})
			for i := range st.Chips {
				if syn := s.tab.Syndrome(st.ChipBytes(i)); syn != 0 {
					t.Fatalf("%s %+v: encoded chip %d has syndrome %#x", s.Name(), s.Org(), i, syn)
				}
			}
			ecc.FlipRandomStoredBits(rng, st, 1+rng.Intn(16))
			for i := range st.Chips {
				if got, want := s.tab.Syndrome(st.ChipBytes(i)), codeSyndromes(s, st, i); got != want {
					t.Fatalf("%s %+v chip %d: table syndrome %#x, SyndromesInto %#x", s.Name(), s.Org(), i, got, want)
				}
			}
		}
	}
}

// TestSyndromeWordLimit: a PAIR code whose syndromes do not fit the
// table's 8-byte word is rejected at construction, after the field's
// 255-symbol limit.
func TestSyndromeWordLimit(t *testing.T) {
	if _, err := New(dram.DDR4x16(), Config{BaseParity: 2, Expansion: 6}); err != nil {
		t.Fatalf("8 parity symbols rejected: %v", err)
	}
	_, err := New(dram.DDR4x16(), Config{BaseParity: 2, Expansion: 7})
	if err == nil || !strings.Contains(err.Error(), "syndrome word") {
		t.Fatalf("9 parity symbols: error %v, want the syndrome word limit", err)
	}
	_, err = New(dram.DDR4x16(), Config{BaseParity: 2, Expansion: 300})
	if err == nil || !strings.Contains(err.Error(), "255") {
		t.Fatalf("318-symbol code: error %v, want the 255-symbol limit", err)
	}
}
