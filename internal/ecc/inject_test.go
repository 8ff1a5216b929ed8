package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/faults"
)

func TestFlipStoredIndexesEveryBit(t *testing.T) {
	// Flipping every index exactly once must flip every stored bit
	// exactly once: re-flipping all of them restores the image.
	s := NewIECC(dram.DDR4x16())
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i)
	}
	st := Encode(s, line)
	ref := st.Clone()
	total := st.TotalBits()
	for idx := 0; idx < total; idx++ {
		FlipStored(st, idx)
	}
	// Everything flipped once: no chip image may equal the original.
	for i := range st.Chips {
		if bytes.Equal(st.Chips[i].Data.Bits, ref.Chips[i].Data.Bits) {
			t.Fatal("data region untouched by full flip sweep")
		}
	}
	for idx := 0; idx < total; idx++ {
		FlipStored(st, idx)
	}
	if !bytes.Equal(st.buf, ref.buf) {
		t.Fatal("double flip sweep did not restore the image")
	}
}

func TestFlipStoredOutOfRangePanics(t *testing.T) {
	s := NewIECC(dram.DDR4x16())
	st := Encode(s, make([]byte, 64))
	for _, idx := range []int{st.TotalBits(), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("index %d did not panic", idx)
				}
			}()
			FlipStored(st, idx)
		}()
	}
}

func TestFlipStoredCoversXferRegion(t *testing.T) {
	// DUO stores transferred redundancy; high indices must reach it.
	s := NewDUO(dram.DDR4x16())
	st := Encode(s, make([]byte, 64))
	ref := st.Clone()
	// Chip 0's image: 128 data + 16 xfer bits; flip index 128 (first
	// xfer bit).
	FlipStored(st, 128)
	if !bytes.Equal(st.Chips[0].Data.Bits, ref.Chips[0].Data.Bits) {
		t.Fatal("index 128 hit the data region")
	}
	if bytes.Equal(st.Chips[0].Xfer.Bits, ref.Chips[0].Xfer.Bits) {
		t.Fatal("index 128 did not hit the xfer region")
	}
}

func TestFlipRandomStoredBitsExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewIECC(dram.DDR4x16())
	for _, k := range []int{1, 2, 5, 16, 100} {
		st := Encode(s, make([]byte, 64))
		FlipRandomStoredBits(rng, st, k)
		flips := 0
		for _, ci := range st.Chips {
			flips += ci.Data.PopCount() + ci.OnDie.PopCount()
		}
		// Encoding the zero line gives an all-zero image (linear codes),
		// so popcount == distinct flips.
		if flips != k {
			t.Fatalf("k=%d: %d bits flipped", k, flips)
		}
	}
	// Saturation beyond the image size.
	st := Encode(s, make([]byte, 64))
	FlipRandomStoredBits(rng, st, 10000)
	flips := 0
	for _, ci := range st.Chips {
		flips += ci.Data.PopCount() + ci.OnDie.PopCount()
	}
	if flips != st.TotalBits() {
		t.Fatalf("saturated flip count %d != %d", flips, st.TotalBits())
	}
}

func TestFlipRandomStoredBitsUniformish(t *testing.T) {
	// Single flips must land in the on-die region roughly in proportion
	// to its share of the stored bits (16/544 for IECC... 8/136).
	rng := rand.New(rand.NewSource(2))
	s := NewIECC(dram.DDR4x16())
	onDie := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		st := Encode(s, make([]byte, 64))
		FlipRandomStoredBits(rng, st, 1)
		for _, ci := range st.Chips {
			if ci.OnDie.PopCount() > 0 {
				onDie++
			}
		}
	}
	share := float64(onDie) / trials
	want := 32.0 / 544.0
	if share < want*0.8 || share > want*1.2 {
		t.Fatalf("on-die share %v, want ~%v", share, want)
	}
}

func TestInjectAccessFaultAllKindsAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []faults.Kind{
		faults.InherentCell, faults.TransientBit, faults.PermanentCell,
		faults.PermanentColumn, faults.PermanentPin, faults.PermanentWord,
		faults.PermanentRow, faults.PermanentBank,
	}
	for _, s := range schemesUnderTest() {
		for _, k := range kinds {
			st := Encode(s, make([]byte, s.Org().LineBytes()))
			InjectAccessFault(rng, st, k, -1)
			flips := 0
			for _, ci := range st.Chips {
				flips += ci.Data.PopCount() + ci.OnDie.PopCount() + ci.Xfer.PopCount()
			}
			if flips == 0 {
				t.Fatalf("%s/%v: injection flipped nothing", s.Name(), k)
			}
		}
	}
}

func TestApplyDeviceFaultDeterministicLane(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewIECC(dram.DDR4x16())
	f := faults.Fault{Kind: faults.PermanentCell, Chip: 1, Lane: 37}
	st := Encode(s, make([]byte, 64))
	ApplyDeviceFault(rng, st, f)
	if st.Chips[1].Data.PopCount() != 1 {
		t.Fatal("cell fault flipped more than one bit")
	}
	ApplyDeviceFault(rng, st, f)
	if st.Chips[1].Data.PopCount() != 0 {
		t.Fatal("cell fault lane not deterministic")
	}
}

func TestApplyDeviceFaultBadChipPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewIECC(dram.DDR4x16())
	st := Encode(s, make([]byte, 64))
	defer func() {
		if recover() == nil {
			t.Fatal("bad chip index did not panic")
		}
	}()
	ApplyDeviceFault(rng, st, faults.Fault{Kind: faults.PermanentCell, Chip: 99})
}
