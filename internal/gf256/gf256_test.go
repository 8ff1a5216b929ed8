package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXorAndSelfInverse(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b += 17 {
			x, y := byte(a), byte(b)
			if Add(x, y) != x^y {
				t.Fatalf("Add(%d,%d) != xor", x, y)
			}
			if Add(Add(x, y), y) != x {
				t.Fatalf("Add not self-inverse at %d,%d", x, y)
			}
		}
	}
}

func TestMulTableAgainstSlowMul(t *testing.T) {
	// Reference: carry-less multiply reduced mod Poly.
	slow := func(a, b byte) byte {
		var p uint16
		x, y := uint16(a), uint16(b)
		for i := 0; i < 8; i++ {
			if y&1 != 0 {
				p ^= x
			}
			y >>= 1
			x <<= 1
			if x&0x100 != 0 {
				x ^= Poly
			}
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("Mul(%d, 1) != %d", a, a)
		}
		if Mul(byte(a), 0) != 0 || Mul(0, byte(a)) != 0 {
			t.Fatalf("Mul by zero not zero at %d", a)
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivInvRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%d)=%d is not an inverse", a, inv)
		}
		for b := 1; b < 256; b += 31 {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d)*%d != %d", a, b, b, a)
			}
		}
	}
	if Div(0, 7) != 0 {
		t.Fatal("Div(0, x) must be 0")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for e := 0; e < Order; e++ {
		if Log(Exp(e)) != e {
			t.Fatalf("Log(Exp(%d)) = %d", e, Log(Exp(e)))
		}
	}
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(Order) != 1 {
		t.Fatal("alpha^255 must be 1")
	}
	if Exp(-3) != Exp(Order-3) {
		t.Fatal("negative exponent handling broken")
	}
}

func TestAlphaGeneratesField(t *testing.T) {
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < Order; i++ {
		if seen[x] {
			t.Fatalf("alpha is not primitive: repeat at power %d", i)
		}
		seen[x] = true
		x = Mul(x, Alpha)
	}
	if len(seen) != Order {
		t.Fatalf("multiplicative group has %d elements, want %d", len(seen), Order)
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) must be 1")
	}
	if Pow(0, 5) != 0 {
		t.Fatal("Pow(0,5) must be 0")
	}
	for a := 1; a < 256; a += 13 {
		acc := byte(1)
		for e := 0; e < 10; e++ {
			if Pow(byte(a), e) != acc {
				t.Fatalf("Pow(%d,%d) mismatch", a, e)
			}
			acc = Mul(acc, byte(a))
		}
		// Negative exponent: a^-1 == Inv(a).
		if Pow(byte(a), -1) != Inv(byte(a)) {
			t.Fatalf("Pow(%d,-1) != Inv", a)
		}
	}
}

func TestDotProduct(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	want := Mul(1, 4) ^ Mul(2, 5) ^ Mul(3, 6)
	if DotProduct(a, b) != want {
		t.Fatal("DotProduct mismatch")
	}
	mustPanicGF(t, "DotProduct mismatch", func() { DotProduct(a, b[:1]) })
}
