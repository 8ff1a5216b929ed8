package rs

import (
	"bytes"
	"testing"
)

// FuzzDecodeBCH feeds arbitrary 20-byte words to the BCH-view decoder:
// it must never panic, and anything it accepts must be a valid codeword.
func FuzzDecodeBCH(f *testing.F) {
	c := MustNew(20, 16)
	f.Add(make([]byte, 20), 0)
	f.Add(bytes.Repeat([]byte{0xFF}, 20), 3)
	cw := c.Encode([]byte("sixteen byte msg"))
	f.Add(cw, 1)
	f.Fuzz(func(t *testing.T, word []byte, erasure int) {
		if len(word) != 20 {
			t.Skip()
		}
		var erasures []int
		if erasure >= 0 && erasure < 20 {
			erasures = []int{erasure}
		}
		out, _, err := decodeAlloc(c, word, erasures)
		if err != nil {
			return
		}
		if !c.IsCodeword(out) {
			t.Fatalf("decoder accepted non-codeword for input %x", word)
		}
		// Bounded-distance property: the accepted codeword differs from
		// the input in at most n-k symbols (errors+erasure corrections).
		diff := 0
		for i := range out {
			if out[i] != word[i] {
				diff++
			}
		}
		if diff > c.N-c.K {
			t.Fatalf("decoder changed %d symbols (> %d) for input %x", diff, c.N-c.K, word)
		}
	})
}

// FuzzDecodeExpandable does the same for the evaluation-view decoder.
func FuzzDecodeExpandable(f *testing.F) {
	e, _ := NewEvaluation(20, 16)
	f.Add(make([]byte, 20))
	f.Add(bytes.Repeat([]byte{0xA5}, 20))
	f.Add(e.Encode([]byte("sixteen byte msg")))
	f.Fuzz(func(t *testing.T, word []byte) {
		if len(word) != 20 {
			t.Skip()
		}
		out, _, err := decodeAlloc(e, word, nil)
		if err != nil {
			return
		}
		// Accepted output must be self-consistent: re-encoding its data
		// symbols reproduces it.
		if !bytes.Equal(e.Encode(out[:16]), out) {
			t.Fatalf("evaluation decoder accepted non-codeword for input %x", word)
		}
	})
}

// FuzzDecodeIntoDifferential feeds arbitrary words and erasure lists to
// both workspace decoders and requires bit-identical behaviour with their
// allocating references — the BCH reference implementation and the
// Berlekamp-Welch solver respectively.
func FuzzDecodeIntoDifferential(f *testing.F) {
	c := MustNew(20, 16)
	e, _ := NewEvaluation(20, 16)
	cd := c.NewDecoder()
	ed := e.NewDecoder()
	dst := make([]byte, 20)
	f.Add(make([]byte, 20), []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 20), []byte{0, 0, 19})
	f.Add(c.Encode([]byte("sixteen byte msg")), []byte{5, 200})
	f.Fuzz(func(t *testing.T, word []byte, rawErasures []byte) {
		if len(word) != 20 || len(rawErasures) > 8 {
			t.Skip()
		}
		erasures := make([]int, len(rawErasures))
		for i, b := range rawErasures {
			// Mostly-valid positions with occasional out-of-range values,
			// so the validation paths stay covered too.
			erasures[i] = int(b) - 2
		}

		wantWord, wantN, wantErr := c.decodeReference(word, erasures)
		gotN, gotErr := cd.DecodeInto(dst, word, erasures)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("bch err mismatch: got %v want %v", gotErr, wantErr)
		}
		if wantErr == nil && (gotN != wantN || !bytes.Equal(dst, wantWord)) {
			t.Fatalf("bch result mismatch for %x erasures %v", word, erasures)
		}

		wantWord, wantN, wantErr = e.decodeBW(word, erasures)
		gotN, gotErr = ed.DecodeInto(dst, word, erasures)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("grs err mismatch: got %v want %v", gotErr, wantErr)
		}
		if wantErr == nil && (gotN != wantN || !bytes.Equal(dst, wantWord)) {
			t.Fatalf("grs result mismatch for %x erasures %v", word, erasures)
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks that every message round-trips through
// both codecs under up-to-t corruption at fuzzer-chosen positions.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	bch := MustNew(20, 16)
	ev, _ := NewEvaluation(20, 16)
	f.Add([]byte("0123456789abcdef"), uint8(3), uint8(17), byte(0x55), byte(0xAA))
	f.Fuzz(func(t *testing.T, msg []byte, p1, p2 uint8, v1, v2 byte) {
		if len(msg) != 16 {
			t.Skip()
		}
		pos1, pos2 := int(p1)%20, int(p2)%20
		for _, c := range []struct {
			enc func([]byte) []byte
			dec func([]byte) ([]byte, int, error)
		}{
			{bch.Encode, func(w []byte) ([]byte, int, error) { return decodeAlloc(bch, w, nil) }},
			{ev.Encode, func(w []byte) ([]byte, int, error) { return decodeAlloc(ev, w, nil) }},
		} {
			cw := c.enc(msg)
			rx := append([]byte(nil), cw...)
			rx[pos1] ^= v1
			rx[pos2] ^= v2
			// At most two corrupted symbols: always within t=2.
			out, _, err := c.dec(rx)
			if err != nil {
				t.Fatalf("within-budget pattern rejected (pos %d,%d vals %x,%x)", pos1, pos2, v1, v2)
			}
			if !bytes.Equal(out, cw) {
				t.Fatalf("within-budget pattern miscorrected")
			}
		}
	})
}
