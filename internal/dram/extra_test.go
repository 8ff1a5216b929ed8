package dram

import (
	"math/rand"
	"testing"
)

func TestCommodityWidthPresets(t *testing.T) {
	for _, o := range []Organization{DDR4x4(), DDR4x8(), DDR5x16()} {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		if o.LineBytes() != 64 {
			t.Fatalf("x%d line bytes %d", o.Pins, o.LineBytes())
		}
		if o.ECCChips != 0 {
			t.Fatalf("x%d commodity preset has ECC chips", o.Pins)
		}
	}
	if DDR4x4().ChipsPerRank != 16 || DDR4x8().ChipsPerRank != 8 {
		t.Fatal("chip counts wrong")
	}
	if got := DDR5x16().AccessBits(); got != 256 {
		t.Fatalf("DDR5 access bits %d", got)
	}
}

func TestChipBitsPerBank(t *testing.T) {
	o := DDR4x16()
	want := int64(o.Rows) * int64(o.Cols) * 128
	if got := o.ChipBitsPerBank(); got != want {
		t.Fatalf("bits per bank %d, want %d", got, want)
	}
}

func TestSplitJoinDDR5(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := DDR5x16()
	line := make([]byte, 64)
	rng.Read(line)
	back := make([]byte, 64)
	b := NewRegion(o.Pins, o.BurstLen)
	for c := 0; c < o.ChipsPerRank; c++ {
		SplitChip(&o, line, c, b)
		JoinChip(&o, back, c, b)
	}
	for i := range line {
		if back[i] != line[i] {
			t.Fatal("DDR5 split/join round trip failed")
		}
	}
}

func TestBurstShapePanics(t *testing.T) {
	x16 := DDR4x16()
	cases := []func(){
		func() { NewRegion(0, 8) },
		func() { NewRegion(16, 8).PinSymbolPart(0, 1) }, // part beyond BL8
		func() { NewRegion(16, 8).SetPinSymbolPart(0, 1, 0) },
		func() { Transpose(NewRegion(16, 8), NewRegion(16, 8)) }, // not transposed shapes
		func() { SplitChip(&x16, make([]byte, 63), 0, NewRegion(16, 8)) },
		func() { SplitChip(&x16, make([]byte, 64), 0, NewRegion(8, 8)) },
		func() { JoinChip(&x16, nil, 0, NewRegion(16, 8)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestJoinLineShapeMismatchPanics(t *testing.T) {
	// Joining a chip whose burst is not the organization's access shape
	// into a line panics instead of writing a partial chip.
	o := DDR4x16()
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	JoinChip(&o, make([]byte, 64), 1, NewRegion(8, 8))
}

func TestAddressString(t *testing.T) {
	a := Address{Rank: 1, Group: 2, Bank: 3, Row: 0x10, Col: 0x20}
	if a.String() == "" {
		t.Fatal("empty address string")
	}
}

func TestMapperCapacityDDR5(t *testing.T) {
	m, err := NewAddressMapper(DDR5x16(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(32) * uint64(1<<16) * uint64(1<<7)
	if m.Capacity() != want {
		t.Fatalf("capacity %d, want %d", m.Capacity(), want)
	}
}
