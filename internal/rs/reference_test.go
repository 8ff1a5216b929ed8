package rs

// The reference decoders: the original allocating implementations of both
// views, kept as the differential-testing oracles for Decoder.DecodeInto.
// decodeReference is the BCH view's syndrome decoder with fresh
// allocations instead of workspace buffers; decodeBW is the
// Berlekamp-Welch solver for the evaluation view, a direct linear solve
// that shares no code with the syndrome decoder.

import (
	"fmt"

	"pair/internal/gf256"
)

// fcr is the exponent of the first consecutive root of the BCH view's
// generator polynomial. The references are written for a general one; the
// codes fix it at zero.
const fcr = 0

// Syndromes returns the N-K syndromes of a BCH-view word by evaluating it
// at the generator roots — the textbook definition, independent of
// SyndromesInto.
func (c *Code) Syndromes(word []byte) []byte {
	if c.evaluation {
		panic("rs: reference syndromes are defined for the BCH view only")
	}
	syn := make([]byte, c.N-c.K)
	for j := range syn {
		syn[j] = gf256.EvalDesc(word, gf256.Exp(fcr+j))
	}
	return syn
}

// IsCodeword reports whether word is a valid BCH-view codeword.
func (c *Code) IsCodeword(word []byte) bool {
	if len(word) != c.N {
		panic(fmt.Sprintf("rs: Syndromes word length %d, want %d", len(word), c.N))
	}
	for j := 0; j < c.N-c.K; j++ {
		if gf256.EvalDesc(word, gf256.Exp(fcr+j)) != 0 {
			return false
		}
	}
	return true
}

// decodeReference is the original allocating BCH-view decode path, the
// differential-testing oracle for Decoder.DecodeInto (same algorithm,
// fresh allocations instead of workspace buffers).
func (c *Code) decodeReference(received []byte, erasures []int) ([]byte, int, error) {
	if len(received) != c.N {
		return nil, 0, fmt.Errorf("rs: Decode word length %d, want %d", len(received), c.N)
	}
	np := c.N - c.K
	if len(erasures) > np {
		return nil, 0, ErrUncorrectable
	}
	word := make([]byte, c.N)
	copy(word, received)

	syn := c.Syndromes(word)
	allZero := true
	for _, s := range syn {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero && len(erasures) == 0 {
		return word, 0, nil
	}
	if allZero {
		// Erasure positions were flagged but the word is consistent;
		// nothing to change.
		return word, 0, nil
	}

	// Erasure locator Gamma(x) = prod (1 - X_i x), X_i = alpha^(N-1-pos).
	gamma := gf256.Polynomial{1}
	for _, pos := range erasures {
		if pos < 0 || pos >= c.N {
			return nil, 0, fmt.Errorf("rs: erasure position %d out of range [0,%d)", pos, c.N)
		}
		x := gf256.Exp(c.N - 1 - pos)
		gamma = gf256.PolyMul(gamma, gf256.Polynomial{1, x})
	}

	// Modified syndromes Xi(x) = Gamma(x) * S(x) mod x^2t.
	synPoly := gf256.Polynomial(syn)
	xi := gf256.PolyMul(gamma, synPoly)
	if len(xi) > np {
		xi = xi[:np]
	}

	// Berlekamp-Massey on the modified syndromes for the error locator.
	lambda := berlekampMassey(xi, np, len(erasures))

	// Full locator Psi = Lambda * Gamma.
	psi := gf256.PolyMul(lambda, gamma)
	degPsi := gf256.PolyDegree(psi)
	if degPsi < 0 || degPsi > np {
		return nil, 0, ErrUncorrectable
	}

	// Chien search: find positions whose locator X satisfies Psi(X^-1)=0.
	positions := make([]int, 0, degPsi)
	for pos := 0; pos < c.N; pos++ {
		xInv := gf256.Exp(255 - (c.N - 1 - pos)) // (alpha^(N-1-pos))^-1
		if gf256.PolyEval(psi, xInv) == 0 {
			positions = append(positions, pos)
		}
	}
	if len(positions) != degPsi {
		// Locator degree does not match its root count: detected failure.
		return nil, 0, ErrUncorrectable
	}

	// Forney: Omega(x) = S(x) * Psi(x) mod x^2t;
	// e_pos = X^(1-fcr) * Omega(X^-1) / Psi'(X^-1).
	omega := gf256.PolyMul(synPoly, psi)
	if len(omega) > np {
		omega = omega[:np]
	}
	psiDeriv := gf256.PolyDeriv(psi)

	nchanged := 0
	for _, pos := range positions {
		x := gf256.Exp(c.N - 1 - pos)
		xInv := gf256.Inv(x)
		denom := gf256.PolyEval(psiDeriv, xInv)
		if denom == 0 {
			return nil, 0, ErrUncorrectable
		}
		num := gf256.PolyEval(omega, xInv)
		mag := gf256.Mul(gf256.Pow(x, 1-fcr), gf256.Div(num, denom))
		if mag != 0 {
			word[pos] ^= mag
			nchanged++
		}
	}

	// Final consistency check: the corrected word must be a codeword.
	if !c.IsCodeword(word) {
		return nil, 0, ErrUncorrectable
	}
	return word, nchanged, nil
}

// berlekampMassey finds the minimal LFSR (error-locator polynomial) for the
// given (possibly erasure-modified) syndrome sequence. np is the total
// number of parity symbols; nerasures the count already consumed by the
// erasure locator, which halves the budget left for unknown errors.
func berlekampMassey(syn gf256.Polynomial, np, nerasures int) gf256.Polynomial {
	lambda := gf256.Polynomial{1}
	prev := gf256.Polynomial{1}
	l := 0
	m := 1
	b := byte(1)

	budget := np - nerasures
	for i := 0; i < budget; i++ {
		n := i + nerasures
		// Discrepancy d = syn[n] + sum_{j=1..l} lambda[j]*syn[n-j].
		var d byte
		if n < len(syn) {
			d = syn[n]
		}
		for j := 1; j <= l && j < len(lambda); j++ {
			if n-j >= 0 && n-j < len(syn) {
				d ^= gf256.Mul(lambda[j], syn[n-j])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := make(gf256.Polynomial, len(lambda))
			copy(tmp, lambda)
			coef := gf256.Div(d, b)
			shifted := gf256.PolyMulX(gf256.PolyScale(prev, coef), m)
			lambda = gf256.PolyAdd(lambda, shifted)
			l = i + 1 - l
			prev = tmp
			b = d
			m = 1
		} else {
			coef := gf256.Div(d, b)
			shifted := gf256.PolyMulX(gf256.PolyScale(prev, coef), m)
			lambda = gf256.PolyAdd(lambda, shifted)
			m++
		}
	}
	return lambda
}

// decodeBW is the Berlekamp-Welch reference decoder for the evaluation
// view: a direct linear solve for the error locator and corrected message
// polynomial, the oracle the syndrome decoder is differentially tested
// against.
func (e *Code) decodeBW(received []byte, erasures []int) ([]byte, int, error) {
	n := e.N
	if len(received) != n {
		return nil, 0, fmt.Errorf("rs: Decode word length %d, want %d", len(received), n)
	}
	erased := make(map[int]bool, len(erasures))
	for _, pos := range erasures {
		if pos < 0 || pos >= n {
			return nil, 0, fmt.Errorf("rs: erasure position %d out of range [0,%d)", pos, n)
		}
		erased[pos] = true
	}
	// Puncture the erased coordinates: decode the (n-s, k) code on the
	// surviving points, which corrects floor((n-s-k)/2) errors — the
	// classical 2e+s <= n-k budget.
	xs := make([]byte, 0, n-len(erased))
	ys := make([]byte, 0, n-len(erased))
	for i := 0; i < n; i++ {
		if !erased[i] {
			xs = append(xs, e.loc[i])
			ys = append(ys, received[i])
		}
	}
	if len(xs) < e.K {
		return nil, 0, ErrUncorrectable
	}
	// Fast path: a clean word (no erasures flagged, parity consistent)
	// needs no solver. This is the overwhelmingly common case in the
	// low-error-rate Monte-Carlo campaigns.
	if len(erasures) == 0 {
		clean := true
		for j, row := range e.parity {
			if gf256.DotProduct(row, received[:e.K]) != received[e.K+j] {
				clean = false
				break
			}
		}
		if clean {
			out := make([]byte, n)
			copy(out, received)
			return out, 0, nil
		}
	}
	emax := (len(xs) - e.K) / 2

	f, ok := berlekampWelch(xs, ys, e.K, emax)
	if !ok {
		return nil, 0, ErrUncorrectable
	}

	// Rebuild the full codeword from f and count changes on non-erased
	// positions; changes beyond emax mean the solver produced a word
	// outside the decoding radius.
	out := make([]byte, n)
	nchanged := 0
	for i := 0; i < n; i++ {
		v := gf256.PolyEval(f, e.loc[i])
		out[i] = v
		if v != received[i] {
			nchanged++
			if !erased[i] && nchanged > emax+len(erased) {
				return nil, 0, ErrUncorrectable
			}
		}
	}
	// Count errors outside erasures precisely.
	errs := 0
	for i := 0; i < n; i++ {
		if !erased[i] && out[i] != received[i] {
			errs++
		}
	}
	if errs > emax {
		return nil, 0, ErrUncorrectable
	}
	return out, nchanged, nil
}

// berlekampWelch finds the polynomial f of degree < k such that
// f(xs[i]) == ys[i] for all but at most emax positions, if one exists.
//
// It solves for E(x) (monic, degree emax) and Q(x) (degree < k+emax) with
// Q(x_i) = y_i * E(x_i) for all i, then f = Q / E. If at most emax of the
// ys disagree with some degree-<k polynomial, a solution exists and the
// quotient is that polynomial.
func berlekampWelch(xs, ys []byte, k, emax int) (gf256.Polynomial, bool) {
	n := len(xs)
	if emax == 0 {
		// No error budget: interpolate through k points and verify the rest.
		f := gf256.LagrangeInterpolate(xs[:k], ys[:k])
		for i := k; i < n; i++ {
			if gf256.PolyEval(f, xs[i]) != ys[i] {
				return nil, false
			}
		}
		return f, true
	}

	ncols := k + 2*emax // unknowns: q_0..q_{k+emax-1}, e_0..e_{emax-1}
	rows := make([][]byte, n)
	rhs := make([]byte, n)
	for i := 0; i < n; i++ {
		row := make([]byte, ncols)
		// Q coefficients.
		p := byte(1)
		for j := 0; j < k+emax; j++ {
			row[j] = p
			p = gf256.Mul(p, xs[i])
		}
		// E coefficients (excluding the monic leading term).
		p = ys[i]
		for j := 0; j < emax; j++ {
			row[k+emax+j] = p
			p = gf256.Mul(p, xs[i])
		}
		// Move the monic term y_i * x_i^emax to the RHS.
		rows[i] = row
		rhs[i] = gf256.Mul(ys[i], gf256.Pow(xs[i], emax))
	}
	sol, ok := solveAny(rows, rhs)
	if !ok {
		return nil, false
	}
	q := gf256.PolyTrim(gf256.Polynomial(sol[:k+emax]))
	eloc := make(gf256.Polynomial, emax+1)
	copy(eloc, sol[k+emax:])
	eloc[emax] = 1 // monic

	f, rem := gf256.PolyDivMod(q, eloc)
	if gf256.PolyDegree(rem) >= 0 {
		return nil, false
	}
	if gf256.PolyDegree(f) >= k {
		return nil, false
	}
	return f, true
}

// solveAny solves the (possibly overdetermined) linear system rows*x = rhs
// by Gauss-Jordan elimination, assigning zero to free variables. It returns
// ok=false if the system is inconsistent.
func solveAny(rows [][]byte, rhs []byte) ([]byte, bool) {
	n := len(rows)
	if n == 0 {
		return nil, false
	}
	ncols := len(rows[0])
	// Work on copies.
	a := make([][]byte, n)
	for i := range rows {
		a[i] = append([]byte(nil), rows[i]...)
	}
	b := append([]byte(nil), rhs...)

	pivotCol := make([]int, 0, ncols)
	r := 0
	for c := 0; c < ncols && r < n; c++ {
		pivot := -1
		for i := r; i < n; i++ {
			if a[i][c] != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[r], a[pivot] = a[pivot], a[r]
		b[r], b[pivot] = b[pivot], b[r]
		inv := gf256.Inv(a[r][c])
		for j := c; j < ncols; j++ {
			a[r][j] = gf256.Mul(a[r][j], inv)
		}
		b[r] = gf256.Mul(b[r], inv)
		for i := 0; i < n; i++ {
			if i == r || a[i][c] == 0 {
				continue
			}
			factor := a[i][c]
			for j := c; j < ncols; j++ {
				a[i][j] ^= gf256.Mul(factor, a[r][j])
			}
			b[i] ^= gf256.Mul(factor, b[r])
		}
		pivotCol = append(pivotCol, c)
		r++
	}
	// Consistency: remaining rows must have zero RHS.
	for i := r; i < n; i++ {
		if b[i] != 0 {
			return nil, false
		}
	}
	x := make([]byte, ncols)
	for i, c := range pivotCol {
		x[c] = b[i]
	}
	return x, true
}
