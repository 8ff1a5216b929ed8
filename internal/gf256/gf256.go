// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed modulo the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the polynomial used by most
// storage-oriented Reed-Solomon codes. The generator element is
// alpha = 0x02.
//
// All operations are table-driven and allocation-free; the package is the
// arithmetic substrate for the Reed-Solomon codecs in internal/rs.
package gf256

import "fmt"

// Poly is the primitive polynomial defining the field, with the x^8 term
// included (bit 8 set).
const Poly = 0x11D

// Alpha is the primitive element (generator) of the multiplicative group.
const Alpha = 0x02

// Order is the number of elements in the multiplicative group (2^8 - 1).
const Order = 255

var (
	expTable [512]byte // expTable[i] = alpha^i, doubled to avoid mod in Mul
	logTable [256]byte // logTable[x] = log_alpha(x); logTable[0] is unused
	invTable [256]byte // invTable[x] = x^-1; invTable[0] is unused
)

func init() {
	x := 1
	for i := 0; i < Order; i++ {
		expTable[i] = byte(x)
		expTable[i+Order] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Fill the tail of expTable so Exp(i) works for i in [0,511].
	expTable[2*Order] = expTable[0]
	expTable[2*Order+1] = expTable[1]
	for i := 1; i < 256; i++ {
		invTable[i] = expTable[Order-int(logTable[i])]
	}
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse,
// so subtraction is Add too.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+Order-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns alpha^e for any non-negative exponent e.
func Exp(e int) byte {
	if e < 0 {
		e = e%Order + Order
	}
	return expTable[e%Order]
}

// Log returns log_alpha(a). It panics if a == 0 (zero has no logarithm).
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a^e in GF(2^8) for any integer exponent e (negative exponents
// use the inverse). Pow(0, 0) is defined as 1; Pow(0, e) for e > 0 is 0 and
// for e < 0 panics.
func Pow(a byte, e int) byte {
	if a == 0 {
		if e == 0 {
			return 1
		}
		if e < 0 {
			panic("gf256: negative power of zero")
		}
		return 0
	}
	if e == 0 {
		return 1
	}
	l := int(logTable[a]) * e
	l %= Order
	if l < 0 {
		l += Order
	}
	return expTable[l]
}

// DotProduct returns sum_i a[i]*b[i] over GF(2^8).
func DotProduct(a, b []byte) byte {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gf256: DotProduct length mismatch %d != %d", len(a), len(b)))
	}
	var acc byte
	for i := range a {
		acc ^= Mul(a[i], b[i])
	}
	return acc
}
