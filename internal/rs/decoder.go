package rs

import (
	"fmt"

	"pair/internal/gf256"
)

// Decoder is a reusable decode workspace for one Code. All polynomial and
// position buffers are preallocated at construction, so the steady-state
// decode path — clean words, correctable error/erasure patterns, and
// detected-uncorrectable patterns alike — performs zero heap allocations.
//
// Both views share the algorithm; the view fixes two policy decisions
// that make their behaviour beyond the correction guarantee differ:
//
//   - The evaluation view validates and de-duplicates the erasure list
//     before it looks at the word, and rejects any result that changes
//     more non-erased symbols than the 2e+s <= N-K budget allows, which
//     makes it extensionally equal to a bounded-distance decoder.
//   - The BCH view takes the erasure list as given (a duplicate squares
//     its locator factor), range-checks it only when a dirty word needs
//     the erasure locator, and accepts any correction that yields a
//     codeword, so it may miscorrect with more than T changes.
//
// A Decoder is NOT safe for concurrent use; give each goroutine its own
// (NewDecoder is cheap).
type Decoder struct {
	c *Code

	syn   []byte // N-K syndromes
	gamma []byte // erasure locator, degree <= np
	xi    []byte // erasure-modified syndromes, mod x^np
	omega []byte // error evaluator, mod x^np
	deriv []byte // formal derivative of psi

	// Berlekamp-Massey scratch. The update lambda += coef * prev * x^m can
	// transiently reach degree 2*np+1 on adversarial (uncorrectable)
	// syndrome sequences before the degree check rejects the result, so
	// these are sized 2*np+2.
	lambda []byte
	prev   []byte
	tmp    []byte

	psi       []byte // full locator lambda*gamma, sized for the worst case
	positions []int  // error positions found by the root search
	erased    []bool // per-position erasure mask (evaluation view)
	erasedPos []int  // de-duplicated erasure positions (evaluation view)
}

// NewDecoder returns a fresh decode workspace for the code.
func (c *Code) NewDecoder() *Decoder {
	np := c.N - c.K
	return &Decoder{
		c:         c,
		syn:       make([]byte, np),
		gamma:     make([]byte, np+1),
		xi:        make([]byte, np),
		omega:     make([]byte, np),
		deriv:     make([]byte, np),
		lambda:    make([]byte, 2*np+2),
		prev:      make([]byte, 2*np+2),
		tmp:       make([]byte, 2*np+2),
		psi:       make([]byte, 3*np+3),
		positions: make([]int, 0, np+1),
		erased:    make([]bool, c.N),
		erasedPos: make([]int, 0, c.N),
	}
}

// erasureList applies the view's erasure policy ahead of decoding (see
// Decoder) and returns the list to decode with: both views refuse more
// erasures than parity symbols.
func (d *Decoder) erasureList(erasures []int) ([]int, error) {
	c := d.c
	if c.evaluation {
		clear(d.erased)
		list := d.erasedPos[:0]
		for _, pos := range erasures {
			if pos < 0 || pos >= c.N {
				return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", pos, c.N)
			}
			if !d.erased[pos] {
				d.erased[pos] = true
				list = append(list, pos)
			}
		}
		erasures = list
	}
	if len(erasures) > c.N-c.K {
		return nil, ErrUncorrectable
	}
	return erasures, nil
}

// DecodeInto corrects errors and erasures in received (length N) into dst
// (length N, may alias received) and returns the number of symbol
// positions changed. On error dst's contents are unspecified. erasures
// lists symbol positions known to be unreliable (each in [0,N)); the
// pattern is guaranteed correctable when 2*errors + erasures <= N-K, and
// beyond that the decoder either returns ErrUncorrectable or — for some
// patterns, as with any bounded-distance decoder — miscorrects. It
// computes the syndromes and corrects through Correct. The steady-state
// path allocates nothing.
func (d *Decoder) DecodeInto(dst, received []byte, erasures []int) (int, error) {
	c := d.c
	if len(received) != c.N {
		return 0, fmt.Errorf("rs: Decode word length %d, want %d", len(received), c.N)
	}
	if len(dst) != c.N {
		return 0, fmt.Errorf("rs: Decode destination length %d, want %d", len(dst), c.N)
	}
	copy(dst, received)
	c.SyndromesInto(d.syn, dst)
	return d.Correct(dst, d.syn, erasures)
}

// Correct corrects word (length N) in place from its syndromes syn
// (length N-K, as SyndromesInto computes them), with DecodeInto's
// erasures, guarantee and result. It is the one correction path: a
// caller that already holds the syndromes, such as a scheme that checks
// each chip through a stored-byte table, calls it without recomputing
// them. A zero syndrome returns at once. On error word's contents are
// unspecified. The steady-state path allocates nothing.
func (d *Decoder) Correct(word, syn []byte, erasures []int) (int, error) {
	c := d.c
	if len(word) != c.N {
		return 0, fmt.Errorf("rs: Correct word length %d, want %d", len(word), c.N)
	}
	if len(syn) != c.N-c.K {
		return 0, fmt.Errorf("rs: Correct syndrome length %d, want %d", len(syn), c.N-c.K)
	}
	erasures, err := d.erasureList(erasures)
	if err != nil {
		return 0, err
	}
	np := c.N - c.K
	copy(d.syn, syn)
	if polyDeg(d.syn) < 0 {
		// Clean word (erasure flags, if any, are consistent): done.
		return 0, nil
	}

	var psi []byte
	if len(erasures) == 0 {
		// Errors only: Gamma = 1, so Psi is the Berlekamp-Massey locator
		// itself and the erasure stages (Gamma build, modified syndromes,
		// locator product) collapse away.
		psi = bmWorkspace(d.syn, np, 0, d.lambda, d.prev, d.tmp)
	} else {
		// Erasure locator Gamma(x) = prod (1 - X_pos x), built in place
		// by descending-order updates.
		gamma := d.gamma[:len(erasures)+1]
		clear(gamma)
		gamma[0] = 1
		glen := 1
		for _, pos := range erasures {
			if pos < 0 || pos >= c.N {
				return 0, fmt.Errorf("rs: erasure position %d out of range [0,%d)", pos, c.N)
			}
			row := gf256.Row(c.loc[pos])
			for j := glen; j >= 1; j-- {
				gamma[j] ^= row[gamma[j-1]]
			}
			glen++
		}

		// Modified syndromes Xi(x) = Gamma(x) * S(x) mod x^np, then
		// Berlekamp-Massey for the error locator and the full locator
		// Psi = Lambda * Gamma.
		xi := d.xi[:np]
		mulModInto(xi, gamma, d.syn)
		lambda := bmWorkspace(xi, np, len(erasures), d.lambda, d.prev, d.tmp)
		psi = d.psi[:len(lambda)+glen]
		mulInto(psi, lambda, gamma)
	}
	degPsi := polyDeg(psi)
	if degPsi < 0 || degPsi > np {
		return 0, ErrUncorrectable
	}
	psi = psi[:degPsi+1]

	// Root search: the candidate roots of Psi are the inverse locators.
	positions := d.positions[:0]
	for pos, xInv := range c.locInv {
		if gf256.EvalAsc(psi, xInv) == 0 {
			if len(positions) == degPsi {
				// More roots than the locator degree: detected failure.
				return 0, ErrUncorrectable
			}
			positions = append(positions, pos)
		}
	}
	if len(positions) != degPsi {
		// Locator degree does not match its root count: detected failure.
		return 0, ErrUncorrectable
	}

	// Forney: Omega(x) = S(x) * Psi(x) mod x^np. The syndromes carry the
	// column multipliers, so X * Omega(1/X) / Psi'(1/X) is u_pos * e_pos
	// and the symbol correction divides u_pos back out.
	omega := d.omega[:np]
	mulModInto(omega, d.syn, psi)
	deriv := d.deriv[:0]
	for i := 1; i < len(psi); i += 2 {
		for len(deriv) < i-1 {
			deriv = append(deriv, 0)
		}
		deriv = append(deriv, psi[i])
	}

	nchanged, errs := 0, 0
	for _, pos := range positions {
		xInv := c.locInv[pos]
		denom := gf256.EvalAsc(deriv, xInv)
		if denom == 0 {
			return 0, ErrUncorrectable
		}
		num := gf256.EvalAsc(omega, xInv)
		mag := gf256.Div(gf256.Mul(c.loc[pos], gf256.Div(num, denom)), c.mult[pos])
		if mag != 0 {
			word[pos] ^= mag
			nchanged++
			if !d.erased[pos] {
				errs++
			}
			// Fold the correction into the syndromes, so after all
			// corrections they must vanish. This replaces the O(N*np)
			// recomputation with O(errors*np) work.
			c.addSyndromes(d.syn, pos, mag)
		}
	}

	// The corrected word must be a codeword (the updated syndromes all
	// zero) and, in the evaluation view, fit the 2e+s <= N-K budget.
	if c.evaluation && errs > (np-len(erasures))/2 {
		return 0, ErrUncorrectable
	}
	for _, s := range d.syn {
		if s != 0 {
			return 0, ErrUncorrectable
		}
	}
	return nchanged, nil
}

// bmWorkspace finds the minimal LFSR (error-locator polynomial) of the
// (possibly erasure-modified) syndrome sequence entirely inside the three
// caller-owned scratch buffers, each sized at least 2*np+2. np is the
// number of parity symbols; nerasures the count already consumed by the
// erasure locator, which halves the budget left for unknown errors. The
// returned slice aliases one of the scratch buffers and is trimmed to the
// locator's logical length.
func bmWorkspace(syn []byte, np, nerasures int, lambda, prev, tmp []byte) []byte {
	for i := range lambda {
		lambda[i], prev[i], tmp[i] = 0, 0, 0
	}
	lambda[0], prev[0] = 1, 1
	lenL, lenP := 1, 1
	l := 0
	m := 1
	b := byte(1)

	budget := np - nerasures
	for i := 0; i < budget; i++ {
		n := i + nerasures
		var dis byte
		if n < len(syn) {
			dis = syn[n]
		}
		for j := 1; j <= l && j < lenL; j++ {
			if n-j >= 0 && n-j < len(syn) {
				dis ^= gf256.Mul(lambda[j], syn[n-j])
			}
		}
		if dis == 0 {
			m++
			continue
		}
		coef := gf256.Div(dis, b)
		row := gf256.Row(coef)
		if 2*l <= i {
			copy(tmp, lambda[:lenL])
			lenT := lenL
			for j := 0; j < lenP; j++ {
				lambda[j+m] ^= row[prev[j]]
			}
			if lenP+m > lenL {
				lenL = lenP + m
			}
			l = i + 1 - l
			// prev <- old lambda (tmp), recycling the buffers by swap.
			prev, tmp = tmp, prev
			for j := lenT; j < lenP+m; j++ {
				prev[j] = 0 // clear residue beyond the copied prefix
			}
			lenP = lenT
			for j := range tmp {
				tmp[j] = 0
			}
			b = dis
			m = 1
		} else {
			for j := 0; j < lenP; j++ {
				lambda[j+m] ^= row[prev[j]]
			}
			if lenP+m > lenL {
				lenL = lenP + m
			}
			m++
		}
		for lenL > 0 && lambda[lenL-1] == 0 {
			lenL--
		}
	}
	return lambda[:lenL]
}

// mulInto computes the full product a*b into out, which must have length
// len(a)+len(b) (one beyond the maximal degree). out must not alias a or b.
func mulInto(out, a, b []byte) {
	for i := range out {
		out[i] = 0
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := gf256.Row(av)
		for j, bv := range b {
			out[i+j] ^= row[bv]
		}
	}
}

// mulModInto computes a*b mod x^len(out) into out. out must not alias a or b.
func mulModInto(out, a, b []byte) {
	for i := range out {
		out[i] = 0
	}
	for i, av := range a {
		if av == 0 || i >= len(out) {
			continue
		}
		row := gf256.Row(av)
		jmax := len(out) - i
		if jmax > len(b) {
			jmax = len(b)
		}
		for j := 0; j < jmax; j++ {
			out[i+j] ^= row[b[j]]
		}
	}
}

// polyDeg returns the degree of p, or -1 for the zero polynomial.
func polyDeg(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}
