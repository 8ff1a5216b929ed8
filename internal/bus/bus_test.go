package bus

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestEncodeDBIInvertsHeavyZeroBytes(t *testing.T) {
	if wire, inv := EncodeDBI(0x00); !inv || wire != 0xFF {
		t.Fatalf("all-zero byte: wire=%#x inv=%v", wire, inv)
	}
	if wire, inv := EncodeDBI(0xFF); inv || wire != 0xFF {
		t.Fatalf("all-one byte: wire=%#x inv=%v", wire, inv)
	}
	// Exactly 4 zeros: no inversion (threshold is >4).
	if _, inv := EncodeDBI(0x0F); inv {
		t.Fatal("4-zero byte inverted")
	}
	// 5 zeros: inverted.
	if _, inv := EncodeDBI(0x07); !inv {
		t.Fatal("5-zero byte not inverted")
	}
}

func TestZerosDrivenBounds(t *testing.T) {
	// With DBI the driven zeros per lane-beat are at most 4 (data) + 1
	// (DBI line) = 5; without DBI up to 8.
	f := func(b byte) bool {
		z := ZerosDriven(b, true)
		if z < 0 || z > 5 {
			return false
		}
		return ZerosDriven(b, false) == 8-bits.OnesCount8(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBINeverWorse(t *testing.T) {
	for v := 0; v < 256; v++ {
		if ZerosDriven(byte(v), true) > ZerosDriven(byte(v), false) {
			// DBI adds the DBI-line zero only when it removes >4 zeros.
			t.Fatalf("DBI worse for %#x", v)
		}
	}
}

func TestExpectedZerosPerByte(t *testing.T) {
	noDBI := ExpectedZerosPerByte(false)
	if noDBI != 4.0 {
		t.Fatalf("uniform bytes average %v zeros, want 4", noDBI)
	}
	withDBI := ExpectedZerosPerByte(true)
	if withDBI >= noDBI {
		t.Fatalf("DBI expectation %v not below %v", withDBI, noDBI)
	}
	// Known value: sum over weights w of C(8,w)*min-side accounting.
	if withDBI < 3.0 || withDBI > 3.6 {
		t.Fatalf("DBI expectation %v outside plausible band", withDBI)
	}
}

func TestAccessEnergyProxyShapes(t *testing.T) {
	// PAIR/IECC: 8 lanes (64-bit visible per beat... 8 byte lanes), BL8,
	// DBI on.
	pair := AccessEnergyProxy(8, 8, true, 0, 1.0)
	// XED: DBI off, doubled write traffic.
	xed := AccessEnergyProxy(8, 8, false, 0, 2.0)
	// DUO: DBI on, one extra beat.
	duo := AccessEnergyProxy(8, 8, true, 1, 1.0)
	if !(pair < duo && duo < xed) {
		t.Fatalf("energy ordering broken: pair=%v duo=%v xed=%v", pair, duo, xed)
	}
	// DUO's extension is exactly 9/8 of PAIR's.
	if ratio := duo / pair; ratio < 1.124 || ratio > 1.126 {
		t.Fatalf("DUO/PAIR energy ratio %v, want 1.125", ratio)
	}
}
