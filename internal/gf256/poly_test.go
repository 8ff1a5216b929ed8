package gf256

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// polyEqual reports whether a and b denote the same polynomial (ignoring
// trailing zeros).
func polyEqual(a, b Polynomial) bool { return slices.Equal(PolyTrim(a), PolyTrim(b)) }

func randPoly(rng *rand.Rand, maxDeg int) Polynomial {
	n := rng.Intn(maxDeg + 1)
	p := make(Polynomial, n+1)
	for i := range p {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

func TestPolyDegree(t *testing.T) {
	cases := []struct {
		p Polynomial
		d int
	}{
		{Polynomial{}, -1},
		{Polynomial{0}, -1},
		{Polynomial{0, 0, 0}, -1},
		{Polynomial{5}, 0},
		{Polynomial{0, 1}, 1},
		{Polynomial{1, 0, 7, 0}, 2},
	}
	for i, c := range cases {
		if PolyDegree(c.p) != c.d {
			t.Fatalf("case %d: degree %d, want %d", i, PolyDegree(c.p), c.d)
		}
	}
}

func TestPolyAddSelfIsZero(t *testing.T) {
	p := Polynomial{1, 2, 3, 4}
	if PolyDegree(PolyAdd(p, p)) != -1 {
		t.Fatal("p + p must be zero")
	}
}

func TestPolyMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b, c := randPoly(rng, 8), randPoly(rng, 8), randPoly(rng, 8)
		left := PolyMul(a, PolyAdd(b, c))
		right := PolyAdd(PolyMul(a, b), PolyMul(a, c))
		if !polyEqual(left, right) {
			t.Fatalf("distributivity failed: a=%v b=%v c=%v", a, b, c)
		}
	}
}

func TestPolyMulDegreeAdds(t *testing.T) {
	a := Polynomial{1, 1}    // x + 1
	b := Polynomial{2, 0, 1} // x^2 + 2
	if d := PolyDegree(PolyMul(a, b)); d != 3 {
		t.Fatalf("degree of product = %d, want 3", d)
	}
}

func TestPolyDivModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a := randPoly(rng, 12)
		b := randPoly(rng, 6)
		if PolyDegree(b) < 0 {
			continue
		}
		q, r := PolyDivMod(a, b)
		if PolyDegree(r) >= PolyDegree(b) {
			t.Fatalf("remainder degree %d >= divisor degree %d", PolyDegree(r), PolyDegree(b))
		}
		back := PolyAdd(PolyMul(q, b), r)
		if !polyEqual(back, a) {
			t.Fatalf("q*b + r != a: a=%v b=%v q=%v r=%v", a, b, q, r)
		}
	}
}

func TestPolyDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero polynomial did not panic")
		}
	}()
	PolyDivMod(Polynomial{1, 2}, Polynomial{0})
}

func TestPolyEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x = alpha
	p := Polynomial{3, 2, 1}
	x := byte(Alpha)
	want := byte(3) ^ Mul(2, x) ^ Mul(1, Mul(x, x))
	if PolyEval(p, x) != want {
		t.Fatal("PolyEval mismatch")
	}
	if PolyEval(Polynomial{}, 5) != 0 {
		t.Fatal("eval of zero polynomial must be 0")
	}
	if PolyEval(p, 0) != 3 {
		t.Fatal("eval at 0 must give constant term")
	}
}

func TestPolyFromRootsHasThoseRoots(t *testing.T) {
	roots := []byte{1, 2, 4, 8, 16}
	p := PolyFromRoots(roots)
	if PolyDegree(p) != len(roots) {
		t.Fatalf("degree %d, want %d", PolyDegree(p), len(roots))
	}
	for _, r := range roots {
		if PolyEval(p, r) != 0 {
			t.Fatalf("root %d not a root", r)
		}
	}
	// A non-root must not evaluate to zero (it would make p reducible twice).
	if PolyEval(p, 3) == 0 {
		t.Fatal("non-root evaluates to zero")
	}
}

func TestPolyDeriv(t *testing.T) {
	// d/dx (a + bx + cx^2 + dx^3) = b + dx^2 in characteristic 2.
	p := Polynomial{9, 7, 5, 3}
	d := PolyDeriv(p)
	want := Polynomial{7, 0, 3}
	if !polyEqual(d, want) {
		t.Fatalf("deriv = %v, want %v", d, want)
	}
	if PolyDegree(PolyDeriv(Polynomial{42})) != -1 {
		t.Fatal("derivative of constant must be zero")
	}
}

func TestLagrangeInterpolateRecoversPolynomial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(16)
		p := make(Polynomial, k)
		for i := range p {
			p[i] = byte(rng.Intn(256))
		}
		xs := make([]byte, k)
		perm := rng.Perm(255)
		for i := 0; i < k; i++ {
			xs[i] = byte(perm[i] + 1)
		}
		ys := make([]byte, k)
		for i := range xs {
			ys[i] = PolyEval(p, xs[i])
		}
		got := LagrangeInterpolate(xs, ys)
		// got and p agree on k points and both have degree < k, so they
		// must be identical.
		if !polyEqual(got, PolyTrim(p)) {
			t.Fatalf("interpolation mismatch: got %v want %v", got, p)
		}
	}
}

func TestLagrangeDuplicatePointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate interpolation points did not panic")
		}
	}()
	LagrangeInterpolate([]byte{1, 1}, []byte{2, 3})
}

func TestPolyMulXShifts(t *testing.T) {
	p := Polynomial{5, 6}
	q := PolyMulX(p, 3)
	want := Polynomial{0, 0, 0, 5, 6}
	if !polyEqual(q, want) {
		t.Fatalf("PolyMulX = %v, want %v", q, want)
	}
}

func TestPolyEvalLinearity(t *testing.T) {
	f := func(a0, a1, b0, b1, x byte) bool {
		pa := Polynomial{a0, a1}
		pb := Polynomial{b0, b1}
		return PolyEval(PolyAdd(pa, pb), x) == (PolyEval(pa, x) ^ PolyEval(pb, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
