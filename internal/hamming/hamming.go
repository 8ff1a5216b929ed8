// Package hamming implements the binary linear codes used by the baseline
// ECC schemes in the PAIR study:
//
//   - SEC: a shortened Hamming single-error-correcting code, e.g. the
//     (136,128) code conventional In-DRAM ECC (IECC) uses per 128-bit
//     chip access. Presented with a double-bit error a SEC code either
//     flags it (syndrome matches no column) or silently *miscorrects*
//     (syndrome aliases a third column) — the central reliability hazard
//     the PAIR paper attacks.
//
//   - SECDED: a Hsiao single-error-correcting double-error-detecting
//     code with odd-weight columns, e.g. the (72,64) code of rank-level
//     ECC DIMMs. All double errors yield even-weight syndromes and are
//     detected, never miscorrected; triples can still alias.
//
// Codeword layout is systematic: data bits occupy positions [0,K), check
// bits positions [K,N). Callers keep the data bits as LSB-first bytes and
// the check bits as an M-bit integer; because the check columns are unit
// vectors, a stored word's syndrome is CheckBits(data) XOR its check bits,
// so no N-bit word is ever assembled.
package hamming

import (
	"fmt"
	"math/bits"

	"pair/internal/syndrome"
)

// Outcome classifies a decode attempt. The decoder cannot see the golden
// data, so "Corrected" only means the syndrome pointed at a bit; whether
// the flip restored the truth is for the caller (which injected the error)
// to judge.
type Outcome int

const (
	// Clean: zero syndrome, word accepted as-is.
	Clean Outcome = iota
	// Corrected: the decoder flipped one bit it believes erroneous.
	Corrected
	// Detected: the decoder flagged an uncorrectable pattern.
	Detected
)

func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Code is a systematic binary code defined by per-position parity-check
// columns.
type Code struct {
	N, K, M int      // codeword, data, check bit counts (N = K + M)
	secded  bool     // Hsiao odd-weight-column construction
	cols    []uint16 // parity-check column for each codeword position
	colIdx  map[uint16]int
	data    *syndrome.Table // the data bytes' check bits
}

// NewSEC constructs a shortened Hamming SEC code with k data bits and the
// minimum number of check bits m such that 2^m >= k + m + 1.
func NewSEC(k int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hamming: invalid k=%d", k)
	}
	m := 1
	for (1 << m) < k+m+1 {
		m++
	}
	if m > 16 {
		return nil, fmt.Errorf("hamming: k=%d needs more than 16 check bits", k)
	}
	c := &Code{N: k + m, K: k, M: m, colIdx: make(map[uint16]int)}
	c.cols = make([]uint16, c.N)
	// Data columns: nonzero, non-unit patterns in increasing order.
	next := uint16(1)
	for i := 0; i < k; i++ {
		for isZeroOrUnit(next) {
			next++
		}
		c.cols[i] = next
		next++
	}
	// Check columns: unit vectors.
	for j := 0; j < m; j++ {
		c.cols[k+j] = 1 << j
	}
	c.index()
	return c, nil
}

// NewSECDED constructs a Hsiao SEC-DED code with k data bits: all columns
// have odd weight, so any double error (even-weight syndrome) is detected.
func NewSECDED(k int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hamming: invalid k=%d", k)
	}
	// Find m such that the number of odd-weight non-unit m-bit patterns
	// covers k: count = 2^(m-1) - m.
	m := 2
	for (1<<(m-1))-m < k {
		m++
	}
	if m > 16 {
		return nil, fmt.Errorf("hamming: k=%d needs more than 16 check bits", k)
	}
	c := &Code{N: k + m, K: k, M: m, secded: true, colIdx: make(map[uint16]int)}
	c.cols = make([]uint16, c.N)
	// Data columns: odd-weight non-unit patterns, lowest weight first
	// (Hsiao's minimal-gate-count ordering).
	idx := 0
	for w := 3; w <= m && idx < k; w += 2 {
		for p := uint16(1); int(p) < (1<<m) && idx < k; p++ {
			if bits.OnesCount16(p) == w {
				c.cols[idx] = p
				idx++
			}
		}
	}
	if idx < k {
		return nil, fmt.Errorf("hamming: internal: insufficient odd-weight columns for k=%d, m=%d", k, m)
	}
	for j := 0; j < m; j++ {
		c.cols[k+j] = 1 << j
	}
	c.index()
	return c, nil
}

// MustSEC is NewSEC, panicking on error.
func MustSEC(k int) *Code {
	c, err := NewSEC(k)
	if err != nil {
		panic(err)
	}
	return c
}

// MustSECDED is NewSECDED, panicking on error.
func MustSECDED(k int) *Code {
	c, err := NewSECDED(k)
	if err != nil {
		panic(err)
	}
	return c
}

// IsSECDED reports whether the code uses the Hsiao odd-weight construction.
func (c *Code) IsSECDED() bool { return c.secded }

// index builds the syndrome lookup and the data bytes' syndrome table;
// data bits past K have no column.
func (c *Code) index() {
	for i, col := range c.cols {
		c.colIdx[col] = i
	}
	c.data = syndrome.New((c.K+7)/8, func(i int) uint64 {
		if i < c.K {
			return uint64(c.cols[i])
		}
		return 0
	})
}

// CheckBits returns the M check bits of the K data bits held LSB-first in
// data ((K+7)/8 bytes; bits past K are ignored): the XOR of the
// parity-check columns of the set data bits, one table lookup per byte.
// A stored word's syndrome is CheckBits(data) XOR its stored check bits.
// Allocates nothing.
func (c *Code) CheckBits(data []byte) uint16 { return uint16(c.data.Syndrome(data)) }

// DecodeSyndrome classifies a precomputed syndrome without touching the
// word: it returns the codeword position to flip and Corrected, or -1 with
// Clean/Detected.
func (c *Code) DecodeSyndrome(syn uint16) (int, Outcome) {
	if syn == 0 {
		return -1, Clean
	}
	if c.secded && bits.OnesCount16(syn)%2 == 0 {
		// Even-weight syndrome with odd-weight columns: an even number of
		// errors — detected, uncorrectable.
		return -1, Detected
	}
	pos, ok := c.colIdx[syn]
	if !ok {
		// Syndrome matches no column: detected uncorrectable (possible for
		// shortened codes and for >=2-bit patterns).
		return -1, Detected
	}
	return pos, Corrected
}

// StorageOverhead returns M/K, the redundancy ratio.
func (c *Code) StorageOverhead() float64 { return float64(c.M) / float64(c.K) }

// EncoderXORs returns the exact 2-input XOR count of the parity generator:
// each check bit XORs together its class of data bits, costing
// (class size - 1) gates.
func (c *Code) EncoderXORs() int {
	total := 0
	for i := 0; i < c.K; i++ {
		total += bits.OnesCount16(c.cols[i])
	}
	return total - c.M
}

func isZeroOrUnit(p uint16) bool {
	return p == 0 || bits.OnesCount16(p) == 1
}
