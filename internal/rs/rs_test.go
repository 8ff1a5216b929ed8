package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/gf256"
)

func randMsg(rng *rand.Rand, k int) []byte {
	m := make([]byte, k)
	for i := range m {
		m[i] = byte(rng.Intn(256))
	}
	return m
}

// corrupt flips nerr random distinct symbols to random different values and
// returns their positions.
func corrupt(rng *rand.Rand, cw []byte, nerr int) []int {
	perm := rng.Perm(len(cw))
	pos := perm[:nerr]
	for _, p := range pos {
		old := cw[p]
		for {
			v := byte(rng.Intn(256))
			if v != old {
				cw[p] = v
				break
			}
		}
	}
	return pos
}

func TestNewRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ n, k int }{{10, 0}, {10, 10}, {10, 12}, {256, 200}, {5, -1}} {
		if _, err := New(c.n, c.k); err == nil {
			t.Fatalf("New(%d,%d) accepted", c.n, c.k)
		}
	}
	if _, err := New(255, 239); err != nil {
		t.Fatalf("New(255,239) rejected: %v", err)
	}
}

func TestEncodeProducesCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{18, 16}, {20, 16}, {76, 64}, {72, 64}, {255, 223}} {
		c := MustNew(shape[0], shape[1])
		for trial := 0; trial < 20; trial++ {
			msg := randMsg(rng, c.K)
			cw := c.Encode(msg)
			if !bytes.Equal(cw[:c.K], msg) {
				t.Fatalf("(%d,%d): encoding not systematic", c.N, c.K)
			}
			if !c.IsCodeword(cw) {
				t.Fatalf("(%d,%d): encoded word has nonzero syndromes", c.N, c.K)
			}
		}
	}
}

func TestEncodeMatchesPolynomialReference(t *testing.T) {
	// parity must equal (msg * x^(n-k)) mod g, g the generator with roots
	// alpha^0..alpha^(n-k-1), in the coefficient convention where
	// codeword[0] is the highest-degree coefficient.
	rng := rand.New(rand.NewSource(2))
	c := MustNew(20, 16)
	roots := make([]byte, c.N-c.K)
	for j := range roots {
		roots[j] = gf256.Exp(j)
	}
	gen := gf256.PolyFromRoots(roots)
	for trial := 0; trial < 50; trial++ {
		msg := randMsg(rng, c.K)
		cw := c.Encode(msg)
		// Build msg polynomial (ascending order with msg[0] highest degree).
		mp := make(gf256.Polynomial, c.N)
		for i, m := range msg {
			mp[c.N-1-i] = m
		}
		_, rem := gf256.PolyDivMod(mp, gen)
		want := make([]byte, c.N-c.K)
		for i := range want {
			// parity[i] sits at codeword position K+i => degree N-1-(K+i).
			d := c.N - 1 - (c.K + i)
			if d < len(rem) {
				want[i] = rem[d]
			}
		}
		if !bytes.Equal(cw[c.K:], want) {
			t.Fatalf("LFSR parity %v != polynomial remainder %v", cw[c.K:], want)
		}
	}
}

func TestDecodeNoError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustNew(20, 16)
	msg := randMsg(rng, c.K)
	cw := c.Encode(msg)
	out, n, err := decodeAlloc(c, cw, nil)
	if err != nil || n != 0 || !bytes.Equal(out, cw) {
		t.Fatalf("clean decode failed: n=%d err=%v", n, err)
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{18, 16}, {20, 16}, {22, 16}, {76, 64}} {
		c := MustNew(shape[0], shape[1])
		for nerr := 1; nerr <= c.T; nerr++ {
			for trial := 0; trial < 100; trial++ {
				msg := randMsg(rng, c.K)
				cw := c.Encode(msg)
				rx := append([]byte(nil), cw...)
				corrupt(rng, rx, nerr)
				out, n, err := decodeAlloc(c, rx, nil)
				if err != nil {
					t.Fatalf("(%d,%d) nerr=%d: decode error: %v", c.N, c.K, nerr, err)
				}
				if n != nerr {
					t.Fatalf("(%d,%d) nerr=%d: corrected %d symbols", c.N, c.K, nerr, n)
				}
				if !bytes.Equal(out, cw) {
					t.Fatalf("(%d,%d) nerr=%d: wrong correction", c.N, c.K, nerr)
				}
			}
		}
	}
}

func TestDecodeErasuresUpToNMinusK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustNew(20, 16)
	for ners := 1; ners <= c.N-c.K; ners++ {
		for trial := 0; trial < 100; trial++ {
			msg := randMsg(rng, c.K)
			cw := c.Encode(msg)
			rx := append([]byte(nil), cw...)
			pos := corrupt(rng, rx, ners)
			out, _, err := decodeAlloc(c, rx, pos)
			if err != nil {
				t.Fatalf("ners=%d: decode error: %v", ners, err)
			}
			if !bytes.Equal(out, cw) {
				t.Fatalf("ners=%d: wrong erasure correction", ners)
			}
		}
	}
}

func TestDecodeMixedErrorsAndErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := MustNew(22, 16) // 6 parity: budgets (e,s) with 2e+s <= 6
	for nerr := 0; nerr <= 3; nerr++ {
		for ners := 0; 2*nerr+ners <= c.N-c.K; ners++ {
			if nerr == 0 && ners == 0 {
				continue
			}
			for trial := 0; trial < 60; trial++ {
				msg := randMsg(rng, c.K)
				cw := c.Encode(msg)
				rx := append([]byte(nil), cw...)
				perm := rng.Perm(c.N)
				erasures := perm[:ners]
				errPos := perm[ners : ners+nerr]
				for _, p := range append(append([]int(nil), erasures...), errPos...) {
					old := rx[p]
					for {
						v := byte(rng.Intn(256))
						if v != old {
							rx[p] = v
							break
						}
					}
				}
				out, _, err := decodeAlloc(c, rx, erasures)
				if err != nil {
					t.Fatalf("e=%d s=%d: decode error: %v", nerr, ners, err)
				}
				if !bytes.Equal(out, cw) {
					t.Fatalf("e=%d s=%d: wrong correction", nerr, ners)
				}
			}
		}
	}
}

func TestDecodeBeyondCapabilityNeverReturnsWrongSilently(t *testing.T) {
	// Beyond t errors a bounded-distance decoder either flags
	// ErrUncorrectable or miscorrects to a *valid* codeword. It must never
	// return a non-codeword claiming success.
	rng := rand.New(rand.NewSource(7))
	c := MustNew(18, 16) // t = 1
	detected, miscorrected := 0, 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(rng, c.K)
		cw := c.Encode(msg)
		rx := append([]byte(nil), cw...)
		corrupt(rng, rx, 2+rng.Intn(3)) // 2..4 errors > t
		out, _, err := decodeAlloc(c, rx, nil)
		if err != nil {
			detected++
			continue
		}
		if !c.IsCodeword(out) {
			t.Fatal("decoder returned non-codeword without error")
		}
		if !bytes.Equal(out, cw) {
			miscorrected++
		}
	}
	if detected == 0 {
		t.Fatal("no overload pattern was detected — detector broken")
	}
	// With t=1 and random double errors, some must miscorrect (that is the
	// physical phenomenon PAIR measures); if none did in 2000 trials the
	// model is wrong.
	if miscorrected == 0 {
		t.Fatal("no miscorrection observed in 2000 overload trials — implausible for t=1")
	}
	t.Logf("overload: %d detected, %d miscorrected of %d", detected, miscorrected, trials)
}

func TestDecodeRejectsTooManyErasures(t *testing.T) {
	c := MustNew(18, 16)
	cw := c.Encode(make([]byte, 16))
	if _, _, err := decodeAlloc(c, cw, []int{0, 1, 2}); err != ErrUncorrectable {
		t.Fatalf("3 erasures on 2-parity code: got %v", err)
	}
}

func TestDecodeBadErasurePosition(t *testing.T) {
	c := MustNew(18, 16)
	cw := c.Encode(make([]byte, 16))
	cw[0] ^= 1
	if _, _, err := decodeAlloc(c, cw, []int{-1}); err == nil {
		t.Fatal("negative erasure position accepted")
	}
	if _, _, err := decodeAlloc(c, cw, []int{18}); err == nil {
		t.Fatal("out-of-range erasure position accepted")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	c := MustNew(18, 16)
	if _, _, err := decodeAlloc(c, make([]byte, 17), nil); err == nil {
		t.Fatal("wrong-length word accepted")
	}
}

func TestErasureFlaggedButClean(t *testing.T) {
	// A clean codeword with erasure flags must decode to itself.
	rng := rand.New(rand.NewSource(8))
	c := MustNew(20, 16)
	msg := randMsg(rng, c.K)
	cw := c.Encode(msg)
	out, n, err := decodeAlloc(c, cw, []int{3, 7})
	if err != nil || n != 0 || !bytes.Equal(out, cw) {
		t.Fatalf("clean word with erasure flags: n=%d err=%v", n, err)
	}
}

func TestCodewordLinearity(t *testing.T) {
	// The sum of two codewords is a codeword (linearity).
	rng := rand.New(rand.NewSource(9))
	c := MustNew(20, 16)
	for trial := 0; trial < 50; trial++ {
		a := c.Encode(randMsg(rng, c.K))
		b := c.Encode(randMsg(rng, c.K))
		sum := make([]byte, c.N)
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		if !c.IsCodeword(sum) {
			t.Fatal("sum of codewords is not a codeword")
		}
	}
}

func TestMinimumDistanceSpotCheck(t *testing.T) {
	// MDS: any nonzero codeword has weight >= n-k+1. Check on random
	// messages (weight of c.Encode(msg) with one nonzero symbol pattern).
	rng := rand.New(rand.NewSource(10))
	c := MustNew(18, 16) // d = 3
	for trial := 0; trial < 300; trial++ {
		msg := make([]byte, c.K)
		msg[rng.Intn(c.K)] = byte(1 + rng.Intn(255))
		cw := c.Encode(msg)
		w := 0
		for _, s := range cw {
			if s != 0 {
				w++
			}
		}
		if w < c.N-c.K+1 {
			t.Fatalf("codeword weight %d < d=%d", w, c.N-c.K+1)
		}
	}
}

// decodeAlloc decodes into a fresh codeword with a fresh workspace, the
// allocating shape many tests want. Hot paths reuse a Decoder.
func decodeAlloc(c *Code, received []byte, erasures []int) ([]byte, int, error) {
	out := make([]byte, c.N)
	nchanged, err := c.NewDecoder().DecodeInto(out, received, erasures)
	if err != nil {
		return nil, 0, err
	}
	return out, nchanged, nil
}
