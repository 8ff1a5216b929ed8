package gf256

// Polynomial represents a polynomial over GF(2^8) in ascending-power order:
// p[i] is the coefficient of x^i. The zero polynomial is represented by an
// empty (or all-zero) slice.
type Polynomial []byte

// PolyDegree returns the degree of p, or -1 for the zero polynomial.
func PolyDegree(p Polynomial) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// PolyTrim returns p with trailing zero coefficients removed.
func PolyTrim(p Polynomial) Polynomial {
	d := PolyDegree(p)
	return p[:d+1]
}

// PolyAdd returns a + b.
func PolyAdd(a, b Polynomial) Polynomial {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Polynomial, n)
	copy(out, a)
	for i := range b {
		out[i] ^= b[i]
	}
	return PolyTrim(out)
}

// PolyScale returns c * p.
func PolyScale(p Polynomial, c byte) Polynomial {
	out := make(Polynomial, len(p))
	for i := range p {
		out[i] = Mul(p[i], c)
	}
	return PolyTrim(out)
}

// PolyMul returns a * b.
func PolyMul(a, b Polynomial) Polynomial {
	da, db := PolyDegree(a), PolyDegree(b)
	if da < 0 || db < 0 {
		return Polynomial{}
	}
	out := make(Polynomial, da+db+1)
	for i := 0; i <= da; i++ {
		if a[i] == 0 {
			continue
		}
		la := int(logTable[a[i]])
		for j := 0; j <= db; j++ {
			if b[j] != 0 {
				out[i+j] ^= expTable[la+int(logTable[b[j]])]
			}
		}
	}
	return out
}

// PolyMulX returns p * x^n (shift up by n).
func PolyMulX(p Polynomial, n int) Polynomial {
	d := PolyDegree(p)
	if d < 0 {
		return Polynomial{}
	}
	out := make(Polynomial, d+1+n)
	copy(out[n:], p[:d+1])
	return out
}

// PolyDivMod returns the quotient and remainder of a / b.
// It panics if b is the zero polynomial.
func PolyDivMod(a, b Polynomial) (q, r Polynomial) {
	db := PolyDegree(b)
	if db < 0 {
		panic("gf256: polynomial division by zero")
	}
	r = make(Polynomial, len(a))
	copy(r, a)
	dr := PolyDegree(r)
	if dr < db {
		return Polynomial{}, PolyTrim(r)
	}
	q = make(Polynomial, dr-db+1)
	lead := Inv(b[db])
	for dr >= db {
		c := Mul(r[dr], lead)
		q[dr-db] = c
		for i := 0; i <= db; i++ {
			r[dr-db+i] ^= Mul(c, b[i])
		}
		dr = PolyDegree(r)
	}
	return PolyTrim(q), PolyTrim(r)
}

// PolyEval evaluates p at x using Horner's rule.
func PolyEval(p Polynomial, x byte) byte {
	var acc byte
	for i := len(p) - 1; i >= 0; i-- {
		acc = Mul(acc, x) ^ p[i]
	}
	return acc
}

// PolyDeriv returns the formal derivative of p. In characteristic 2 the
// even-power terms vanish and odd-power terms shift down.
func PolyDeriv(p Polynomial) Polynomial {
	if len(p) <= 1 {
		return Polynomial{}
	}
	out := make(Polynomial, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return PolyTrim(out)
}

// PolyFromRoots returns prod_i (x - roots[i]) = prod_i (x + roots[i]).
func PolyFromRoots(roots []byte) Polynomial {
	out := Polynomial{1}
	for _, r := range roots {
		out = PolyMul(out, Polynomial{r, 1})
	}
	return out
}

// LagrangeInterpolate returns the unique polynomial of degree < len(xs)
// passing through the points (xs[i], ys[i]). The xs must be distinct;
// it panics otherwise.
func LagrangeInterpolate(xs, ys []byte) Polynomial {
	if len(xs) != len(ys) {
		panic("gf256: interpolation point count mismatch")
	}
	n := len(xs)
	result := make(Polynomial, n)
	// master(x) = prod (x - xs[i])
	master := PolyFromRoots(xs)
	for i := 0; i < n; i++ {
		// li(x) = master / (x - xs[i]) scaled so li(xs[i]) = 1.
		num, rem := PolyDivMod(master, Polynomial{xs[i], 1})
		if PolyDegree(rem) >= 0 {
			panic("gf256: interpolation master polynomial not divisible")
		}
		denom := PolyEval(num, xs[i])
		if denom == 0 {
			panic("gf256: duplicate interpolation points")
		}
		c := Div(ys[i], denom)
		for j := range num {
			result[j] ^= Mul(num[j], c)
		}
	}
	return PolyTrim(result)
}
