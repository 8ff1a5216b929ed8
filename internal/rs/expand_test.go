package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pair/internal/gf256"
)

func TestNewExpandableValidation(t *testing.T) {
	if _, err := NewEvaluation(2, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewEvaluation(16, 18); err == nil {
		t.Fatal("n<=k accepted")
	}
	// 255 distinct nonzero points exist, so 256 evaluations cannot: an
	// oversized shape or expansion is an error, never a panic.
	if _, err := NewEvaluation(256, 16); err == nil {
		t.Fatal("n=256 accepted")
	}
	base, err := NewEvaluation(18, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Expand(300); err == nil {
		t.Fatal("expansion beyond 255 symbols accepted")
	}
	if _, err := base.Expand(-1); err == nil {
		t.Fatal("negative expansion accepted")
	}
	if _, err := MustNew(18, 16).Expand(2); err == nil {
		t.Fatal("BCH-view code expanded")
	}
	if wide, err := base.Expand(237); err != nil || wide.N != 255 {
		t.Fatalf("expansion to 255 symbols: %v", err)
	}
}

func TestExpandableEncodeSystematic(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e, err := NewEvaluation(18, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg := randMsg(rng, 16)
	cw := e.Encode(msg)
	if len(cw) != 18 {
		t.Fatalf("codeword length %d", len(cw))
	}
	if !bytes.Equal(cw[:16], msg) {
		t.Fatal("encoding not systematic")
	}
}

// TestEvaluationEncodeMatchesInterpolation checks the parity map against
// the definition of the evaluation view: the codeword is the degree-<k
// polynomial through the message at alpha^0..alpha^(k-1), evaluated at
// alpha^0..alpha^(n-1).
func TestEvaluationEncodeMatchesInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, shape := range [][2]int{{18, 16}, {20, 16}, {36, 32}, {12, 3}, {255, 223}} {
		e, err := NewEvaluation(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		points := make([]byte, e.N)
		for i := range points {
			points[i] = gf256.Exp(i)
		}
		for trial := 0; trial < 20; trial++ {
			msg := randMsg(rng, e.K)
			f := gf256.LagrangeInterpolate(points[:e.K], msg)
			want := make([]byte, e.N)
			for i, x := range points {
				want[i] = gf256.PolyEval(f, x)
			}
			if got := e.Encode(msg); !bytes.Equal(got, want) {
				t.Fatalf("(%d,%d): encode %x, interpolation %x", e.N, e.K, got, want)
			}
		}
	}
}

func TestExpandableDecodeUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range [][2]int{{18, 16}, {20, 16}, {22, 16}, {24, 16}} {
		e, err := NewEvaluation(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		for nerr := 0; nerr <= e.T; nerr++ {
			for trial := 0; trial < 60; trial++ {
				msg := randMsg(rng, e.K)
				cw := e.Encode(msg)
				rx := append([]byte(nil), cw...)
				corrupt(rng, rx, nerr)
				out, n, err := decodeAlloc(e, rx, nil)
				if err != nil {
					t.Fatalf("(%d,%d) nerr=%d: %v", e.N, e.K, nerr, err)
				}
				if n != nerr || !bytes.Equal(out, cw) {
					t.Fatalf("(%d,%d) nerr=%d: wrong correction (n=%d)", e.N, e.K, nerr, n)
				}
			}
		}
	}
}

func TestExpandableDecodeErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e, _ := NewEvaluation(20, 16)
	// 2e + s <= 4
	for nerr := 0; nerr <= 2; nerr++ {
		for ners := 0; 2*nerr+ners <= 4; ners++ {
			if nerr+ners == 0 {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				msg := randMsg(rng, e.K)
				cw := e.Encode(msg)
				rx := append([]byte(nil), cw...)
				perm := rng.Perm(e.N)
				erasures := perm[:ners]
				for _, p := range perm[:ners+nerr] {
					rx[p] ^= byte(1 + rng.Intn(255))
				}
				out, _, err := decodeAlloc(e, rx, erasures)
				if err != nil {
					t.Fatalf("e=%d s=%d: %v", nerr, ners, err)
				}
				if !bytes.Equal(out, cw) {
					t.Fatalf("e=%d s=%d: wrong correction", nerr, ners)
				}
			}
		}
	}
}

func TestExpansionPreservesStoredSymbols(t *testing.T) {
	// The defining property: expanding (18,16) -> (20,16) must not change
	// the first 18 symbols.
	rng := rand.New(rand.NewSource(23))
	base, _ := NewEvaluation(18, 16)
	expanded, err := base.Expand(2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		msg := randMsg(rng, 16)
		cwBase := base.Encode(msg)
		cwFull, err := base.ExtendCodeword(cwBase, expanded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cwFull[:18], cwBase) {
			t.Fatal("expansion modified stored symbols")
		}
		// Direct encoding with the expanded code must agree.
		direct := expanded.Encode(msg)
		if !bytes.Equal(direct, cwFull) {
			t.Fatal("extended codeword differs from direct expanded encoding")
		}
	}
}

func TestExpansionRaisesCorrectionPower(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base, _ := NewEvaluation(18, 16) // t = 1
	expanded, _ := base.Expand(2)    // t = 2
	baseFail, expOK := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(rng, 16)
		cwBase := base.Encode(msg)
		cwFull, _ := base.ExtendCodeword(cwBase, expanded)

		// Two errors within the base 18 symbols.
		rxBase := append([]byte(nil), cwBase...)
		pos := corrupt(rng, rxBase, 2)

		if out, _, err := decodeAlloc(base, rxBase, nil); err != nil || !bytes.Equal(out, cwBase) {
			baseFail++
		}
		rxFull := append([]byte(nil), cwFull...)
		for _, p := range pos {
			rxFull[p] = rxBase[p]
		}
		if out, _, err := decodeAlloc(expanded, rxFull, nil); err == nil && bytes.Equal(out, cwFull) {
			expOK++
		}
	}
	if expOK != trials {
		t.Fatalf("expanded code corrected only %d/%d double errors", expOK, trials)
	}
	if baseFail == 0 {
		t.Fatal("base t=1 code corrected all double errors — implausible")
	}
}

func TestExtendCodewordValidation(t *testing.T) {
	base, _ := NewEvaluation(18, 16)
	other, _ := NewEvaluation(20, 15)
	if _, err := base.ExtendCodeword(make([]byte, 18), other); err == nil {
		t.Fatal("mismatched K accepted")
	}
	if _, err := base.ExtendCodeword(make([]byte, 17), base); err == nil {
		t.Fatal("wrong codeword length accepted")
	}
	// A BCH-view code locates its positions differently, so it is no
	// expansion of an evaluation-view code, nor the reverse; and an
	// expansion never shortens the code.
	wide, _ := base.Expand(2)
	if _, err := base.ExtendCodeword(make([]byte, 18), MustNew(20, 16)); err == nil {
		t.Fatal("BCH-view target accepted")
	}
	if _, err := MustNew(18, 16).ExtendCodeword(make([]byte, 18), wide); err == nil {
		t.Fatal("BCH-view source accepted")
	}
	if _, err := wide.ExtendCodeword(make([]byte, 20), base); err == nil {
		t.Fatal("shorter target accepted")
	}
}

func TestExpandableAgreesWithBCHViewOnCorrectionPower(t *testing.T) {
	// Both views of an (n,k) RS code are MDS with the same t; check the
	// evaluation view corrects everything the BCH view does at t=2.
	rng := rand.New(rand.NewSource(25))
	ev, _ := NewEvaluation(20, 16)
	bch := MustNew(20, 16)
	for trial := 0; trial < 100; trial++ {
		msg := randMsg(rng, 16)
		cwE := ev.Encode(msg)
		cwB := bch.Encode(msg)
		rxE := append([]byte(nil), cwE...)
		rxB := append([]byte(nil), cwB...)
		// Same two error positions in both (values differ; capability is
		// position-driven for MDS codes).
		perm := rng.Perm(20)
		for _, p := range perm[:2] {
			rxE[p] ^= 0x5A
			rxB[p] ^= 0x5A
		}
		if out, _, err := decodeAlloc(ev, rxE, nil); err != nil || !bytes.Equal(out, cwE) {
			t.Fatalf("evaluation view failed on double error: %v", err)
		}
		if out, _, err := decodeAlloc(bch, rxB, nil); err != nil || !bytes.Equal(out, cwB) {
			t.Fatalf("BCH view failed on double error: %v", err)
		}
	}
}

func TestExpandableBeyondCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	e, _ := NewEvaluation(18, 16) // t=1
	detected := 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(rng, 16)
		cw := e.Encode(msg)
		rx := append([]byte(nil), cw...)
		corrupt(rng, rx, 2)
		out, _, err := decodeAlloc(e, rx, nil)
		if err != nil {
			detected++
			continue
		}
		// Miscorrection must still land on a codeword of the code.
		reenc := e.Encode(out[:16])
		if !bytes.Equal(reenc, out) {
			t.Fatal("miscorrection produced non-codeword")
		}
	}
	if detected == 0 {
		t.Fatal("no double error detected by t=1 evaluation decoder")
	}
}

func TestExpandableTooManyErasures(t *testing.T) {
	e, _ := NewEvaluation(18, 16)
	cw := e.Encode(make([]byte, 16))
	cw[0] ^= 1
	// Erase so many that fewer than k symbols survive.
	erasures := []int{0, 1, 2}
	if _, _, err := decodeAlloc(e, cw, erasures); err == nil {
		t.Fatal("decode with < k surviving symbols accepted")
	}
}

// TestExpandableDecodeIntoMatchesBW drives the syndrome decoder and the
// Berlekamp-Welch reference over randomized error/erasure patterns —
// within budget, beyond budget (uncorrectable and miscorrecting), with
// duplicate and oversized erasure lists — and requires identical results.
func TestExpandableDecodeIntoMatchesBW(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := [][2]int{{20, 16}, {18, 16}, {81, 64}, {12, 3}, {10, 9}, {24, 16}}
	for _, shape := range shapes {
		e, err := NewEvaluation(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		d := e.NewDecoder()
		dst := make([]byte, e.N)
		np := e.N - e.K
		for trial := 0; trial < 400; trial++ {
			msg := randMsg(rng, e.K)
			rx := e.Encode(msg)
			ncorrupt := rng.Intn(np + 3)
			for _, p := range rng.Perm(e.N)[:ncorrupt] {
				rx[p] ^= byte(1 + rng.Intn(255))
			}
			var erasures []int
			switch rng.Intn(4) {
			case 1: // plausible erasures
				erasures = rng.Perm(e.N)[:rng.Intn(np+1)]
			case 2: // duplicates allowed
				for i := 0; i < rng.Intn(4); i++ {
					erasures = append(erasures, rng.Intn(e.N))
					erasures = append(erasures, erasures[0])
				}
			case 3: // too many
				erasures = rng.Perm(e.N)[:min(e.N, np+1+rng.Intn(3))]
			}

			wantWord, wantN, wantErr := e.decodeBW(rx, erasures)
			gotN, gotErr := d.DecodeInto(dst, rx, erasures)
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrUncorrectable) != !errors.Is(wantErr, ErrUncorrectable)) {
				t.Fatalf("(%d,%d) err mismatch: got %v want %v (corrupt=%d erasures=%v)",
					e.N, e.K, gotErr, wantErr, ncorrupt, erasures)
			}
			if wantErr != nil {
				continue
			}
			if gotN != wantN || !bytes.Equal(dst, wantWord) {
				t.Fatalf("(%d,%d) result mismatch: nchanged %d vs %d\n got %x\nwant %x\n  rx %x erasures=%v",
					e.N, e.K, gotN, wantN, dst, wantWord, rx, erasures)
			}
		}
	}
}

// TestExpandableEncodeToMatchesEncode checks the in-place encoder against
// the allocating one, including the aliasing case.
func TestExpandableEncodeToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e, _ := NewEvaluation(20, 16)
	cw := make([]byte, e.N)
	for trial := 0; trial < 100; trial++ {
		msg := randMsg(rng, e.K)
		want := e.Encode(msg)
		e.EncodeTo(msg, cw)
		if !bytes.Equal(cw, want) {
			t.Fatalf("EncodeTo mismatch: %x vs %x", cw, want)
		}
		// Aliased: message already sitting in the codeword buffer.
		for i := range cw {
			cw[i] = 0
		}
		copy(cw[:e.K], msg)
		e.EncodeTo(cw[:e.K], cw)
		if !bytes.Equal(cw, want) {
			t.Fatalf("aliased EncodeTo mismatch: %x vs %x", cw, want)
		}
	}
}

// TestExpandableFastPathAllocs pins the zero-allocation property of the
// workspace encode/decode paths.
func TestExpandableFastPathAllocs(t *testing.T) {
	e, _ := NewEvaluation(20, 16)
	d := e.NewDecoder()
	msg := make([]byte, 16)
	for i := range msg {
		msg[i] = byte(i*11 + 1)
	}
	cw := make([]byte, 20)
	e.EncodeTo(msg, cw)
	dst := make([]byte, 20)

	clean := append([]byte(nil), cw...)
	twoErr := append([]byte(nil), cw...)
	twoErr[3] ^= 0x55
	twoErr[17] ^= 0xAA
	tooMany := append([]byte(nil), cw...)
	for i := 0; i < 6; i++ {
		tooMany[i] ^= byte(0x21 * (i + 1))
	}
	erasures := []int{2, 9}

	cases := []struct {
		name string
		fn   func()
	}{
		{"EncodeTo", func() { e.EncodeTo(msg, cw) }},
		{"DecodeInto/clean", func() { d.DecodeInto(dst, clean, nil) }},
		{"DecodeInto/two-errors", func() { d.DecodeInto(dst, twoErr, nil) }},
		{"DecodeInto/erasures", func() { d.DecodeInto(dst, twoErr, erasures) }},
		{"DecodeInto/uncorrectable", func() { d.DecodeInto(dst, tooMany, nil) }},
	}
	for _, tc := range cases {
		tc.fn() // warm up
		if n := testing.AllocsPerRun(200, tc.fn); n > 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, n)
		}
	}
}
