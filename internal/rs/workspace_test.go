package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestDecodeIntoMatchesReference drives the workspace decoder and the
// original allocating reference over randomized error/erasure patterns —
// within budget, beyond budget (uncorrectable and miscorrecting), and with
// duplicate/garbage erasure lists — and requires bit-identical results.
func TestDecodeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{{20, 16}, {18, 16}, {81, 64}, {12, 3}, {255, 223}, {10, 9}}
	for _, shape := range shapes {
		c := MustNew(shape[0], shape[1])
		d := c.NewDecoder()
		dst := make([]byte, c.N)
		for trial := 0; trial < 400; trial++ {
			msg := randMsg(rng, c.K)
			rx := c.Encode(msg)
			// Corrupt 0..np+2 random symbols (beyond budget included).
			ncorrupt := rng.Intn(c.NumParity() + 3)
			for _, p := range rng.Perm(c.N)[:ncorrupt] {
				rx[p] ^= byte(1 + rng.Intn(255))
			}
			var erasures []int
			switch rng.Intn(4) {
			case 1: // plausible erasures
				ners := rng.Intn(c.NumParity() + 1)
				erasures = rng.Perm(c.N)[:ners]
			case 2: // duplicates allowed
				for i := 0; i < rng.Intn(4); i++ {
					erasures = append(erasures, rng.Intn(c.N))
					erasures = append(erasures, erasures[0])
				}
			case 3: // too many
				erasures = rng.Perm(c.N)[:min(c.N, c.NumParity()+1+rng.Intn(3))]
			}

			wantWord, wantN, wantErr := c.decodeReference(rx, erasures)
			gotN, gotErr := d.DecodeInto(dst, rx, erasures)
			if !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("(%d,%d) err mismatch: got %v want %v (corrupt=%d erasures=%v)",
					c.N, c.K, gotErr, wantErr, ncorrupt, erasures)
			}
			if wantErr != nil {
				continue
			}
			if gotN != wantN || !bytes.Equal(dst, wantWord) {
				t.Fatalf("(%d,%d) result mismatch: nchanged %d vs %d\n got %x\nwant %x",
					c.N, c.K, gotN, wantN, dst, wantWord)
			}
		}
	}
}

// TestDecodeIntoAliasing verifies DecodeInto may correct in place.
func TestDecodeIntoAliasing(t *testing.T) {
	c := MustNew(20, 16)
	d := c.NewDecoder()
	rng := rand.New(rand.NewSource(7))
	msg := randMsg(rng, 16)
	golden := c.Encode(msg)
	rx := append([]byte(nil), golden...)
	rx[2] ^= 0x10
	rx[19] ^= 0x7f
	n, err := d.DecodeInto(rx, rx, nil)
	if err != nil || n != 2 || !bytes.Equal(rx, golden) {
		t.Fatalf("in-place decode failed: n=%d err=%v", n, err)
	}
}

// TestDecodeIntoErrorOrdering pins the validation order the reference
// implementation established: clean words win over bad erasure lists, and
// oversized erasure lists are rejected before position validation.
func TestDecodeIntoErrorOrdering(t *testing.T) {
	c := MustNew(20, 16)
	d := c.NewDecoder()
	dst := make([]byte, 20)
	cw := c.Encode(make([]byte, 16))
	// Clean word + out-of-range erasure: accepted (syndromes checked first).
	if _, err := d.DecodeInto(dst, cw, []int{99}); err != nil {
		t.Fatalf("clean word with junk erasure rejected: %v", err)
	}
	// Dirty word + out-of-range erasure: position error.
	rx := append([]byte(nil), cw...)
	rx[0] ^= 1
	if _, err := d.DecodeInto(dst, rx, []int{99}); err == nil || errors.Is(err, ErrUncorrectable) {
		t.Fatalf("out-of-range erasure not reported: %v", err)
	}
	// Too many erasures rejected up front.
	if _, err := d.DecodeInto(dst, rx, make([]int, 5)); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("oversized erasure list: %v", err)
	}
}

// TestSyndromesIntoMatchesSyndromes cross-checks the table-row syndrome
// kernel against the allocating API.
func TestSyndromesIntoMatchesSyndromes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustNew(20, 16)
	syn := make([]byte, c.NumParity())
	for trial := 0; trial < 200; trial++ {
		word := randMsg(rng, c.N)
		c.SyndromesInto(syn, word)
		if want := c.Syndromes(word); !bytes.Equal(syn, want) {
			t.Fatalf("syndromes differ: %x vs %x", syn, want)
		}
	}
}

// TestCorrectMatchesDecodeInto drives Correct with the syndromes
// SyndromesInto computes over random within- and beyond-budget patterns,
// with and without erasures, in both views: its result, word and error
// must be DecodeInto's, since DecodeInto is SyndromesInto plus Correct.
func TestCorrectMatchesDecodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	codes := []*Code{MustNew(18, 16), MustNew(20, 16), MustNew(81, 64)}
	for _, nk := range [][2]int{{18, 16}, {20, 16}, {22, 16}, {36, 32}} {
		e, err := NewEvaluation(nk[0], nk[1])
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, e)
	}
	for _, c := range codes {
		d, ref := c.NewDecoder(), c.NewDecoder()
		syn := make([]byte, c.NumParity())
		want, got := make([]byte, c.N), make([]byte, c.N)
		for trial := 0; trial < 400; trial++ {
			rx := c.Encode(randMsg(rng, c.K))
			for _, p := range rng.Perm(c.N)[:rng.Intn(c.NumParity()+3)] {
				rx[p] ^= byte(1 + rng.Intn(255))
			}
			var erasures []int
			if rng.Intn(2) == 0 {
				erasures = rng.Perm(c.N)[:rng.Intn(c.NumParity()+1)]
			}
			wantN, wantErr := ref.DecodeInto(want, rx, erasures)
			c.SyndromesInto(syn, rx)
			copy(got, rx)
			gotN, gotErr := d.Correct(got, syn, erasures)
			if (gotErr == nil) != (wantErr == nil) || gotN != wantN || (wantErr == nil && !bytes.Equal(got, want)) {
				t.Fatalf("(%d,%d): Correct = %d, %v, %x; DecodeInto = %d, %v, %x",
					c.N, c.K, gotN, gotErr, got, wantN, wantErr, want)
			}
		}
		if _, err := d.Correct(got[1:], syn, nil); err == nil {
			t.Fatalf("(%d,%d): short word accepted", c.N, c.K)
		}
		if _, err := d.Correct(got, syn[1:], nil); err == nil {
			t.Fatalf("(%d,%d): short syndrome accepted", c.N, c.K)
		}
	}
}

// TestColumnIsUnitWordSyndromes checks each packed column against the
// syndromes of the word holding v at pos alone, in both views.
func TestColumnIsUnitWordSyndromes(t *testing.T) {
	e, err := NewEvaluation(22, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Code{MustNew(18, 16), e} {
		word, syn := make([]byte, c.N), make([]byte, c.NumParity())
		for pos := 0; pos < c.N; pos++ {
			for _, v := range []byte{1, 2, 0x80, 0x5a, 0xff} {
				clear(word)
				word[pos] = v
				c.SyndromesInto(syn, word)
				var want uint64
				for i, s := range syn {
					want |= uint64(s) << (8 * i)
				}
				if got := c.Column(pos, v); got != want {
					t.Fatalf("(%d,%d): Column(%d, %#x) = %#x, want %#x", c.N, c.K, pos, v, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Column of a code with 17 parity symbols did not panic")
		}
	}()
	MustNew(81, 64).Column(0, 1)
}

// TestCodecFastPathAllocs pins the allocation behaviour the Monte-Carlo
// engines rely on: encode and workspace decode (clean, errors, erasures,
// detected-uncorrectable) must not allocate in steady state.
func TestCodecFastPathAllocs(t *testing.T) {
	c := MustNew(20, 16)
	d := c.NewDecoder()
	msg := make([]byte, 16)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	cw := make([]byte, 20)
	c.EncodeTo(msg, cw)
	dst := make([]byte, 20)

	clean := append([]byte(nil), cw...)
	twoErr := append([]byte(nil), cw...)
	twoErr[3] ^= 0x55
	twoErr[17] ^= 0xAA
	tooMany := append([]byte(nil), cw...)
	for i := 0; i < 6; i++ {
		tooMany[i] ^= byte(0x11 * (i + 1))
	}
	erasures := []int{2, 9}
	syn := make([]byte, c.NumParity())
	c.SyndromesInto(syn, twoErr)

	cases := []struct {
		name string
		fn   func()
	}{
		{"EncodeTo", func() { c.EncodeTo(msg, cw) }},
		{"DecodeInto/clean", func() { d.DecodeInto(dst, clean, nil) }},
		{"DecodeInto/two-errors", func() { d.DecodeInto(dst, twoErr, nil) }},
		{"DecodeInto/erasures", func() { d.DecodeInto(dst, twoErr[:20], erasures) }},
		{"DecodeInto/uncorrectable", func() { d.DecodeInto(dst, tooMany, nil) }},
		{"SyndromesInto", func() { c.SyndromesInto(dst[:4], clean) }},
		{"Correct/two-errors", func() { copy(dst, twoErr); d.Correct(dst, syn, nil) }},
	}
	for _, tc := range cases {
		tc.fn() // warm up
		if n := testing.AllocsPerRun(200, tc.fn); n > 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, n)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
