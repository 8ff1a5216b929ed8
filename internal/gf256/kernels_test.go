package gf256

import (
	"math/rand"
	"testing"
)

func mustPanicGF(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestRowDifferentialAgainstMul checks every entry of the 64 KiB table
// against the log/exp scalar multiply it caches.
func TestRowDifferentialAgainstMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := Row(byte(c))
		for b := 0; b < 256; b++ {
			if row[b] != Mul(byte(c), byte(b)) {
				t.Fatalf("Row(%d)[%d] = %d, want Mul = %d", c, b, row[b], Mul(byte(c), byte(b)))
			}
		}
	}
}

func naiveEval(coeff func(i int) byte, n int, x byte) byte {
	var acc byte
	for i := 0; i < n; i++ {
		acc ^= Mul(coeff(i), Pow(x, i))
	}
	return acc
}

func TestEvalAscAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := make([]byte, 1+rng.Intn(32))
		rng.Read(p)
		x := byte(rng.Intn(256))
		want := naiveEval(func(i int) byte { return p[i] }, len(p), x)
		if got := EvalAsc(p, x); got != want {
			t.Fatalf("EvalAsc(%v, %d) = %d, want %d", p, x, got, want)
		}
	}
	if EvalAsc(nil, 3) != 0 {
		t.Fatal("empty polynomial must evaluate to 0")
	}
}

func TestEvalDescAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		w := make([]byte, 1+rng.Intn(32))
		rng.Read(w)
		x := byte(rng.Intn(256))
		// word[0] is the highest-degree coefficient.
		want := naiveEval(func(i int) byte { return w[len(w)-1-i] }, len(w), x)
		if got := EvalDesc(w, x); got != want {
			t.Fatalf("EvalDesc(%v, %d) = %d, want %d", w, x, got, want)
		}
	}
}

// TestEvalOrientations pins the asc/desc duality on one concrete word.
func TestEvalOrientations(t *testing.T) {
	p := []byte{5, 3, 1} // asc: 5 + 3x + x^2, desc: 5x^2 + 3x + 1
	rev := []byte{1, 3, 5}
	for x := 0; x < 256; x++ {
		if EvalAsc(p, byte(x)) != EvalDesc(rev, byte(x)) {
			t.Fatalf("asc/desc disagree at x=%d", x)
		}
	}
}

func TestLogPowEdges(t *testing.T) {
	mustPanicGF(t, "Log(0)", func() { Log(0) })
	if Log(1) != 0 {
		t.Fatalf("Log(1) = %d", Log(1))
	}
	// Log and Exp are inverses on the nonzero field.
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Pow(0, 0) != 1 || Pow(0, 5) != 0 {
		t.Fatal("Pow zero-base convention broken")
	}
	mustPanicGF(t, "Pow(0, -1)", func() { Pow(0, -1) })
	// Negative exponents are inverses: a^-1 * a = 1.
	for a := 1; a < 256; a++ {
		if Mul(Pow(byte(a), -1), byte(a)) != 1 {
			t.Fatalf("Pow(%d, -1) is not the inverse", a)
		}
	}
	if Pow(7, -3) != Inv(Pow(7, 3)) {
		t.Fatal("Pow(a, -e) != Inv(Pow(a, e))")
	}
}

func TestPolyScaleAndEqual(t *testing.T) {
	p := Polynomial{1, 2, 3}
	if !polyEqual(PolyScale(p, 1), p) {
		t.Fatal("scale by 1 changed the polynomial")
	}
	if PolyDegree(PolyScale(p, 0)) >= 0 {
		t.Fatal("scale by 0 must give the zero polynomial")
	}
	for x := 0; x < 256; x++ {
		if PolyEval(PolyScale(p, 7), byte(x)) != Mul(7, PolyEval(p, byte(x))) {
			t.Fatalf("PolyScale not pointwise at x=%d", x)
		}
	}
}

func TestPolyMulXZero(t *testing.T) {
	if PolyDegree(PolyMulX(Polynomial{}, 3)) >= 0 {
		t.Fatal("shifting the zero polynomial must stay zero")
	}
	got := PolyMulX(Polynomial{1, 2}, 2)
	if !polyEqual(got, Polynomial{0, 0, 1, 2}) {
		t.Fatalf("PolyMulX shift wrong: %v", got)
	}
}

func TestLagrangeInterpolatePanics(t *testing.T) {
	mustPanicGF(t, "count mismatch", func() { LagrangeInterpolate([]byte{1, 2}, []byte{3}) })
	mustPanicGF(t, "duplicate points", func() { LagrangeInterpolate([]byte{1, 1}, []byte{3, 4}) })
}
