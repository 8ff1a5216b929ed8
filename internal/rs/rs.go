// Package rs implements systematic generalized Reed-Solomon (GRS) codes
// over GF(2^8): the codec behind PAIR's pin-aligned in-DRAM code and
// DUO's controller-side code.
//
// A GRS code of length N and dimension K is fixed by a locator X_pos and
// a nonzero column multiplier u_pos per position. Its codewords are the
// words r with
//
//	sum_pos u_pos * r_pos * X_pos^i = 0   for every i < N-K,
//
// and the left-hand sides are the syndromes. The package builds two views
// of that family, which differ only in those two vectors and in the
// decoder policy their constructor fixes:
//
//   - The BCH view (New): X_pos = alpha^(N-1-pos) and u_pos = 1, the
//     classic generator-polynomial code with consecutive roots
//     alpha^0 .. alpha^(N-K-1). DUO and DUORank decode with it.
//
//   - The evaluation view (NewEvaluation): X_pos = alpha^pos and u_pos
//     the dual multipliers 1/prod_{m!=pos}(X_pos - X_m). Its codewords
//     are the evaluations of the degree-<K message polynomial at
//     alpha^0 .. alpha^(N-1), so appending evaluations at the next powers
//     of alpha (Expand, ExtendCodeword) raises the correction capability
//     without rewriting one stored symbol. This is the "expandability of
//     Reed-Solomon code" the PAIR paper's title refers to, and PAIR
//     decodes with this view.
//
// Every code is systematic: positions [0,K) carry the message and
// positions [K,N) the parity, which one parity map produces (EncodeTo).
// One workspace Decoder corrects errors and erasures (syndromes,
// Berlekamp-Massey, a root search over the locators, Forney's formula
// divided by u_pos), one codeword per call: PAIR and DUO decode one chip
// access at a time.
//
// A code with N-K parity symbols corrects any nu symbol errors plus s
// symbol erasures with 2*nu + s <= N-K. Beyond that the decoder reports
// ErrUncorrectable or miscorrects to a different codeword — the silent
// data corruption the reliability experiments measure, so it is
// deliberately not hidden.
package rs

import (
	"errors"
	"fmt"

	"pair/internal/gf256"
)

// ErrUncorrectable is returned when the decoder detects that the received
// word is beyond its correction capability.
var ErrUncorrectable = errors.New("rs: uncorrectable error pattern")

// Code is a systematic GRS code over GF(2^8) in one of the two views.
// Codewords are laid out data-first: positions [0,K) hold the message and
// positions [K,N) hold the parity symbols.
type Code struct {
	N int // codeword length in symbols (<= 255)
	K int // message length in symbols
	T int // guaranteed error-correction capability, floor((N-K)/2)

	// evaluation selects the evaluation view, which fixes the locators,
	// the multipliers and the decoder policy together (see Decoder).
	evaluation bool

	loc    []byte // X_pos, the locator of each position
	locInv []byte // 1/X_pos, the candidate roots of the locator polynomial
	mult   []byte // u_pos, the column multipliers

	// check[i][pos] = u_pos * X_pos^i is the parity-check matrix, so
	// syndrome i is the dot product of row i with the word.
	check [][]byte
	// parity[j][i] multiplies data symbol i into parity symbol K+j.
	parity [][]byte
}

// New returns the (n,k) code in the BCH view. n must satisfy
// 0 < k < n <= 255.
func New(n, k int) (*Code, error) {
	if err := checkShape(n, k); err != nil {
		return nil, err
	}
	loc := make([]byte, n)
	mult := make([]byte, n)
	for pos := range loc {
		loc[pos] = gf256.Exp(n - 1 - pos)
		mult[pos] = 1
	}
	return newCode(n, k, false, loc, mult), nil
}

// MustNew is New, panicking on error; for statically-known-valid shapes.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// NewEvaluation returns the (n,k) code in the evaluation view: a
// codeword is the evaluation of the degree-<k message polynomial at
// alpha^0 .. alpha^(n-1), and the message is its first k evaluations.
// n must satisfy 0 < k < n <= 255.
func NewEvaluation(n, k int) (*Code, error) {
	if err := checkShape(n, k); err != nil {
		return nil, err
	}
	loc := make([]byte, n)
	for pos := range loc {
		loc[pos] = gf256.Exp(pos)
	}
	// The dual of the evaluation code on points X_pos is the GRS code with
	// these multipliers, so they turn the syndromes into its parity checks.
	mult := make([]byte, n)
	for j, xj := range loc {
		prod := byte(1)
		for m, xm := range loc {
			if m != j {
				prod = gf256.Mul(prod, xj^xm)
			}
		}
		mult[j] = gf256.Inv(prod)
	}
	return newCode(n, k, true, loc, mult), nil
}

func checkShape(n, k int) error {
	if k <= 0 || n <= k || n > 255 {
		return fmt.Errorf("rs: invalid parameters (n=%d, k=%d): need 0 < k < n <= 255", n, k)
	}
	return nil
}

// newCode builds the decoder tables and the parity map of the code with
// the given locators and multipliers.
func newCode(n, k int, evaluation bool, loc, mult []byte) *Code {
	c := &Code{
		N: n, K: k, T: (n - k) / 2,
		evaluation: evaluation,
		loc:        loc,
		locInv:     make([]byte, n),
		mult:       mult,
		check:      make([][]byte, n-k),
		parity:     make([][]byte, n-k),
	}
	for pos, x := range loc {
		c.locInv[pos] = gf256.Inv(x)
	}
	for i := range c.check {
		c.check[i] = make([]byte, n)
		for pos := range loc {
			c.check[i][pos] = gf256.Mul(mult[pos], gf256.Pow(loc[pos], i))
		}
	}
	// Systematic encoding is erasure decoding of the parity positions:
	// column i of the parity map is the parity of the i-th unit message,
	// which the decoder recovers from N-K erasures — always within budget.
	for j := range c.parity {
		c.parity[j] = make([]byte, k)
	}
	erasures := make([]int, n-k)
	for j := range erasures {
		erasures[j] = k + j
	}
	d := c.NewDecoder()
	word := make([]byte, n)
	for i := 0; i < k; i++ {
		clear(word)
		word[i] = 1
		if _, err := d.DecodeInto(word, word, erasures); err != nil {
			panic(fmt.Sprintf("rs: (%d,%d) parity map: %v", n, k, err))
		}
		for j, row := range c.parity {
			row[i] = word[k+j]
		}
	}
	return c
}

// Expand returns the evaluation-view code with e more evaluations, at the
// next e powers of alpha. Codewords of c are prefixes of codewords of the
// expanded code; ExtendCodeword computes the appended symbols.
func (c *Code) Expand(e int) (*Code, error) {
	if !c.evaluation {
		return nil, errors.New("rs: only an evaluation-view code expands")
	}
	if e < 0 {
		return nil, fmt.Errorf("rs: negative expansion %d", e)
	}
	return NewEvaluation(c.N+e, c.K)
}

// ExtendCodeword computes the expansion symbols that turn cw (a codeword
// of c) into a codeword of the expanded code `to`, and returns the full
// extended codeword. The first c.N symbols are returned unchanged — this
// is the defining property of expansion. `to` must be an expansion of c:
// both in the evaluation view, with the same K and no fewer symbols.
func (c *Code) ExtendCodeword(cw []byte, to *Code) ([]byte, error) {
	if len(cw) != c.N {
		return nil, fmt.Errorf("rs: codeword length %d, want %d", len(cw), c.N)
	}
	if !c.evaluation || !to.evaluation || to.K != c.K || to.N < c.N {
		return nil, errors.New("rs: target code is not an expansion of the source")
	}
	out := to.Encode(cw[:c.K])
	copy(out, cw)
	return out, nil
}

// NumParity returns the number of parity symbols, n-k.
func (c *Code) NumParity() int { return c.N - c.K }

// Data extracts the message symbols from a systematic codeword.
func (c *Code) Data(cw []byte) []byte { return cw[:c.K] }

// Encode returns the n-symbol systematic codeword for the k-symbol message.
func (c *Code) Encode(data []byte) []byte {
	cw := make([]byte, c.N)
	c.EncodeTo(data, cw)
	return cw
}

// EncodeTo writes the systematic codeword for data into cw, which must have
// length N. data must have length K. data and cw may overlap at cw[:K].
func (c *Code) EncodeTo(data, cw []byte) {
	if len(data) != c.K {
		panic(fmt.Sprintf("rs: Encode message length %d, want %d", len(data), c.K))
	}
	if len(cw) != c.N {
		panic(fmt.Sprintf("rs: Encode codeword length %d, want %d", len(cw), c.N))
	}
	copy(cw, data)
	msg := cw[:c.K]
	for j, row := range c.parity {
		var acc byte
		for i, d := range msg {
			acc ^= gf256.Row(row[i])[d]
		}
		cw[c.K+j] = acc
	}
}

// SyndromesInto fills syn (length N-K) with the syndromes of word
// (length N), all zero exactly when word is a codeword. It allocates
// nothing.
func (c *Code) SyndromesInto(syn, word []byte) {
	if len(word) != c.N {
		panic(fmt.Sprintf("rs: Syndromes word length %d, want %d", len(word), c.N))
	}
	if len(syn) != c.N-c.K {
		panic(fmt.Sprintf("rs: syndrome buffer length %d, want %d", len(syn), c.N-c.K))
	}
	for i, row := range c.check {
		var acc byte
		for pos, v := range word {
			acc ^= gf256.Row(row[pos])[v]
		}
		syn[i] = acc
	}
}

// Column returns the syndromes of the word that is v at position pos and
// zero elsewhere, packed with syndrome i in byte i: the parity-check
// columns of the bits set in v, from which a scheme builds its
// stored-byte syndrome table (internal/syndrome). The code must have at
// most 8 parity symbols.
func (c *Code) Column(pos int, v byte) uint64 {
	if len(c.check) > 8 {
		panic(fmt.Sprintf("rs: %d syndromes do not pack into 64 bits", len(c.check)))
	}
	var s uint64
	for i, row := range c.check {
		s |= uint64(gf256.Row(row[pos])[v]) << (8 * i)
	}
	return s
}

// addSyndromes adds symbol v at position pos to the syndromes:
// syn[i] ^= u_pos * X_pos^i * v.
func (c *Code) addSyndromes(syn []byte, pos int, v byte) {
	for i, row := range c.check {
		syn[i] ^= gf256.Row(row[pos])[v]
	}
}
