package gf256

// This file holds the allocation-free, bounds-check-friendly kernels the
// hot codec paths (internal/rs) are built on: a full 64 KiB multiplication
// table with per-constant row access and fused Horner evaluation steps.

// mulTab[a][b] = a*b over GF(2^8). 64 KiB; a row (fixed first operand) is
// four cache lines, which makes constant-times-variable inner loops a
// single branch-free lookup per element.
var mulTab [256][256]byte

func init() {
	// gf256.go's init (sorted first in the package) has already built
	// expTable/logTable.
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		row := &mulTab[a]
		for b := 1; b < 256; b++ {
			row[b] = expTable[la+int(logTable[b])]
		}
	}
}

// Row returns the multiplication row of c: Row(c)[b] == Mul(c, b) for all
// b. The row is shared and read-only; callers keep the pointer across an
// inner loop so each product is one table lookup with no branches.
func Row(c byte) *[256]byte { return &mulTab[c] }

// EvalAsc evaluates the ascending-power polynomial p (p[i] the x^i
// coefficient) at x with a fused table-row Horner step: one lookup and one
// XOR per coefficient, no branches.
func EvalAsc(p []byte, x byte) byte {
	row := &mulTab[x]
	var acc byte
	for i := len(p) - 1; i >= 0; i-- {
		acc = row[acc] ^ p[i]
	}
	return acc
}

// EvalDesc evaluates word as a descending-power polynomial (word[0] the
// highest-degree coefficient) at x — the orientation Reed-Solomon syndrome
// computation uses.
func EvalDesc(word []byte, x byte) byte {
	row := &mulTab[x]
	var acc byte
	for _, w := range word {
		acc = row[acc] ^ w
	}
	return acc
}
