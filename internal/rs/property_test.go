package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pair/internal/gf256"
)

// TestRandomShapesWithinBudget draws random (n,k) shapes and verifies the
// full correction guarantee 2e+s <= n-k on both codecs.
func TestRandomShapesWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(40)
		parity := 1 + rng.Intn(8)
		n := k + parity
		bch := MustNew(n, k)
		ev, err := NewEvaluation(n, k)
		if err != nil {
			t.Fatal(err)
		}
		msg := randMsg(rng, k)
		cwB := bch.Encode(msg)
		cwE := ev.Encode(msg)

		// Random within-budget error/erasure pattern.
		maxErr := parity / 2
		nerr := 0
		if maxErr > 0 {
			nerr = rng.Intn(maxErr + 1)
		}
		ners := rng.Intn(parity - 2*nerr + 1)
		perm := rng.Perm(n)
		erasures := perm[:ners]
		for _, p := range perm[:ners+nerr] {
			v := byte(1 + rng.Intn(255))
			cwB[p] ^= v // corrupt in place; golden recomputed below
			cwE[p] ^= v
		}
		// Recompute golden.
		goldenB := bch.Encode(msg)
		goldenE := ev.Encode(msg)

		outB, _, errB := decodeAlloc(bch, cwB, erasures)
		if errB != nil || !bytes.Equal(outB, goldenB) {
			t.Fatalf("BCH (%d,%d) e=%d s=%d failed: %v", n, k, nerr, ners, errB)
		}
		outE, _, errE := decodeAlloc(ev, cwE, erasures)
		if errE != nil || !bytes.Equal(outE, goldenE) {
			t.Fatalf("EV (%d,%d) e=%d s=%d failed: %v", n, k, nerr, ners, errE)
		}
	}
}

// TestEncodeLinearityQuick checks Encode(a) ^ Encode(b) == Encode(a^b) for
// both codecs (they are linear codes) via testing/quick.
func TestEncodeLinearityQuick(t *testing.T) {
	bch := MustNew(20, 16)
	ev, _ := NewEvaluation(20, 16)
	f := func(a, b [16]byte) bool {
		sum := make([]byte, 16)
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		for _, enc := range []func([]byte) []byte{bch.Encode, ev.Encode} {
			ca, cb, cs := enc(a[:]), enc(b[:]), enc(sum)
			for i := range cs {
				if cs[i] != ca[i]^cb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScalingQuick: Encode(c*m) == c*Encode(m) over GF(256).
func TestScalingQuick(t *testing.T) {
	ev, _ := NewEvaluation(20, 16)
	f := func(m [16]byte, c byte) bool {
		scaled := make([]byte, 16)
		for i := range scaled {
			scaled[i] = gf256.Mul(m[i], c)
		}
		cm, cs := ev.Encode(m[:]), ev.Encode(scaled)
		for i := range cs {
			if cs[i] != gf256.Mul(cm[i], c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	c := MustNew(20, 16)
	if c.NumParity() != 4 || c.T != 2 {
		t.Fatalf("NumParity/T wrong: %d/%d", c.NumParity(), c.T)
	}
	msg := make([]byte, 16)
	msg[0] = 7
	cw := c.Encode(msg)
	if !bytes.Equal(c.Data(cw), msg) {
		t.Fatal("Data() wrong")
	}
	e, _ := NewEvaluation(18, 16)
	if !bytes.Equal(e.Data(e.Encode(msg)), msg) {
		t.Fatal("Expandable.Data() wrong")
	}
}
