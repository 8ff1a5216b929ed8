package dram

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestOrganizationDefaults(t *testing.T) {
	o := DDR4x16()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.AccessBits() != 128 {
		t.Fatalf("x16 BL8 access bits = %d, want 128", o.AccessBits())
	}
	if o.LineBytes() != 64 {
		t.Fatalf("line bytes = %d, want 64", o.LineBytes())
	}
	if o.Banks() != 8 {
		t.Fatalf("banks = %d, want 8", o.Banks())
	}

	e := DDR4x8ECC()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.LineBytes() != 64 || e.TotalChips() != 9 {
		t.Fatalf("x8 ECC rank: line %dB chips %d", e.LineBytes(), e.TotalChips())
	}
}

func TestOrganizationValidateRejects(t *testing.T) {
	bad := DDR4x16()
	bad.Pins = 5
	if bad.Validate() == nil {
		t.Fatal("x5 accepted")
	}
	bad = DDR4x16()
	bad.BurstLen = 4
	if bad.Validate() == nil {
		t.Fatal("BL4 accepted")
	}
	bad = DDR4x16()
	bad.Rows = 0
	if bad.Validate() == nil {
		t.Fatal("0 rows accepted")
	}
}

func TestBurstGetSetFlip(t *testing.T) {
	b := NewRegion(16, 8)
	b.Flip(3, 5)
	if !b.Get(3, 5) || b.PopCount() != 1 {
		t.Fatal("flip/get failed")
	}
	// Bit (pin, beat) is storage bit beat*Pins + pin, LSB-first.
	if b.Bits[(5*16+3)/8] != 1<<((5*16+3)%8) {
		t.Fatalf("bit (3,5) stored as %v", b.Bits)
	}
	b.Flip(3, 5)
	if b.Get(3, 5) || b.PopCount() != 0 {
		t.Fatal("flip failed")
	}
}

func TestBurstIndexPanics(t *testing.T) {
	b := NewRegion(16, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range burst access did not panic")
		}
	}()
	b.Get(16, 0)
}

// pinSymbols returns the pin-major view of a burst: byte p*(Beats/8)+j is
// the j-th symbol pin p carries.
func pinSymbols(b Region) []byte {
	v := NewRegion(b.Beats, b.Pins)
	Transpose(v, b)
	return v.Bits
}

func TestPinSymbolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{16, 8}, {8, 8}, {4, 8}, {16, 16}} {
		b := NewRegion(shape[0], shape[1])
		syms := NewRegion(shape[1], shape[0])
		rng.Read(syms.Bits)
		Transpose(b, syms)
		if !bytes.Equal(pinSymbols(b), syms.Bits) {
			t.Fatalf("%dx%d: transpose round trip failed", shape[0], shape[1])
		}
		for p := 0; p < b.Pins; p++ {
			for part := 0; part < b.Beats/8; part++ {
				if got, want := b.PinSymbolPart(p, part), syms.Bits[p*b.Beats/8+part]; got != want {
					t.Fatalf("%dx%d pin %d part %d: symbol %#x, view %#x", shape[0], shape[1], p, part, got, want)
				}
				v := byte(rng.Intn(256))
				b.SetPinSymbolPart(p, part, v)
				if b.PinSymbolPart(p, part) != v {
					t.Fatalf("%dx%d pin %d part %d: set/get mismatch", shape[0], shape[1], p, part)
				}
			}
		}
	}
}

func TestPinSymbolBeatOrientation(t *testing.T) {
	// Bit of beat k must land in bit k of the symbol.
	b := NewRegion(16, 8)
	b.Flip(7, 3)
	if got := pinSymbols(b)[7]; got != 1<<3 {
		t.Fatalf("symbol = %#x, want %#x", got, 1<<3)
	}
	// On BL16 beat 8+k is bit k of the pin's second symbol.
	b = NewRegion(16, 16)
	b.Flip(7, 11)
	if got := pinSymbols(b)[7*2+1]; got != 1<<3 || b.PinSymbolPart(7, 1) != 1<<3 {
		t.Fatalf("BL16 symbol = %#x, want %#x", got, 1<<3)
	}
}

func TestBeatByteRoundTrip(t *testing.T) {
	// Beat-aligned byte symbols are the stored bytes: bit i of byte
	// beat*Pins/8+g is pin 8g+i during beat.
	rng := rand.New(rand.NewSource(2))
	b := NewRegion(16, 8)
	rng.Read(b.Bits)
	for beat := 0; beat < 8; beat++ {
		for g := 0; g < 2; g++ {
			for i := 0; i < 8; i++ {
				if b.Get(8*g+i, beat) != (b.Bits[beat*2+g]&(1<<i) != 0) {
					t.Fatalf("beat %d group %d bit %d mismatch", beat, g, i)
				}
			}
		}
	}
}

func TestPinAndBeatViewsSeeSamePhysicalBits(t *testing.T) {
	// A single physical bit (pin 9, beat 4) must appear in pin symbol 9 at
	// bit 4 AND in beat 4's group-1 byte at bit 1.
	b := NewRegion(16, 8)
	b.Flip(9, 4)
	if pinSymbols(b)[9] != 1<<4 {
		t.Fatal("pin view wrong")
	}
	if b.Bits[4*2+1] != 1<<1 {
		t.Fatal("beat view wrong")
	}
}

func TestBurstBytesRoundTrip(t *testing.T) {
	// A burst's bytes are its beat-major serialization (beat 0's pins
	// first, pin 0 in the LSB): a region over given bytes reads back the
	// bits they encode, and flips write the same bytes back.
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 16)
	rng.Read(buf)
	b := Region{Pins: 16, Beats: 8, Bits: buf}
	back := NewRegion(16, 8)
	for beat := 0; beat < 8; beat++ {
		for pin := 0; pin < 16; pin++ {
			if b.Get(pin, beat) != (buf[beat*2+pin/8]&(1<<(pin%8)) != 0) {
				t.Fatalf("bit (%d,%d) misread", pin, beat)
			}
			if b.Get(pin, beat) {
				back.Flip(pin, beat)
			}
		}
	}
	if !bytes.Equal(back.Bits, buf) {
		t.Fatal("bytes round trip failed")
	}
}

func TestBurstXorAsErrorMask(t *testing.T) {
	// An error mask applies to a burst of the same shape byte by byte.
	b := NewRegion(8, 8)
	b.SetPinSymbolPart(2, 0, 0xFF)
	mask := NewRegion(8, 8)
	mask.Flip(2, 0)
	for i, v := range mask.Bits {
		b.Bits[i] ^= v
	}
	if b.PinSymbolPart(2, 0) != 0xFE {
		t.Fatalf("mask application wrong: %#x", b.PinSymbolPart(2, 0))
	}
}

func TestTransposeMatchesBitLoop(t *testing.T) {
	// The 8x8 block path must agree with the bit-by-bit definition.
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{16, 8}, {8, 16}, {16, 16}, {8, 8}, {4, 8}, {8, 4}} {
		src := NewRegion(shape[0], shape[1])
		rng.Read(src.Bits)
		if pad := src.Len() % 8; pad != 0 {
			src.Bits[len(src.Bits)-1] &= 1<<pad - 1
		}
		dst := NewRegion(shape[1], shape[0])
		rng.Read(dst.Bits) // stale contents must be overwritten
		Transpose(dst, src)
		for p := 0; p < src.Pins; p++ {
			for beat := 0; beat < src.Beats; beat++ {
				if dst.Get(beat, p) != src.Get(p, beat) {
					t.Fatalf("%dx%d: bit (%d,%d) not transposed", shape[0], shape[1], p, beat)
				}
			}
		}
	}
}

func TestChipStoredBitOrder(t *testing.T) {
	chips, buf := NewChips(2, Shape{Pins: 16, Beats: 8, OnDie: 12, Xfer: 1})
	c := &chips[1]
	if c.TotalBits() != 128+12+16 || c.Shape() != (Shape{Pins: 16, Beats: 8, OnDie: 12, Xfer: 1}) {
		t.Fatalf("chip has %d bits, shape %+v", c.TotalBits(), c.Shape())
	}
	if len(buf) != 2*(16+2+2) {
		t.Fatalf("buffer of %d bytes", len(buf))
	}
	// Stored bit i indexes Data, then OnDie, then Xfer.
	for _, tc := range []struct {
		idx  int
		r    Region
		pin  int
		beat int
	}{{0, c.Data, 0, 0}, {127, c.Data, 15, 7}, {128, c.OnDie, 0, 0}, {139, c.OnDie, 11, 0}, {140, c.Xfer, 0, 0}, {155, c.Xfer, 15, 0}} {
		c.Flip(tc.idx)
		if !tc.r.Get(tc.pin, tc.beat) || tc.r.PopCount() != 1 {
			t.Fatalf("stored bit %d did not land on (%d,%d)", tc.idx, tc.pin, tc.beat)
		}
		c.Flip(tc.idx)
	}
	// Chips are sliced in order from the one buffer.
	c.Flip(0)
	if buf[20] != 1 {
		t.Fatal("chip 1 does not start at byte 20 of the buffer")
	}
	if chips[0].Data.PopCount()+chips[0].OnDie.PopCount()+chips[0].Xfer.PopCount() != 0 {
		t.Fatal("flip on chip 1 reached chip 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stored bit past the chip did not panic")
		}
	}()
	c.Flip(c.TotalBits())
}

func TestSplitJoinLineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, org := range []Organization{DDR4x16(), DDR4x8ECC(), DDR4x4()} {
		line := make([]byte, org.LineBytes())
		rng.Read(line)
		back := make([]byte, len(line))
		b := NewRegion(org.Pins, org.BurstLen)
		for c := 0; c < org.ChipsPerRank; c++ {
			rng.Read(b.Bits) // stale contents must be overwritten
			SplitChip(&org, line, c, b)
			JoinChip(&org, back, c, b)
		}
		if !bytes.Equal(back, line) {
			t.Fatalf("split/join round trip failed for x%d", org.Pins)
		}
	}
}

func TestSplitLineChipLocality(t *testing.T) {
	// Bit k of beat b of the bus is chip k/Pins's pin k%Pins: byte 0 of
	// the line travels on chip 0's pins 0..7 during beat 0 for x16, and on
	// chips 0 and 1 for x4.
	for _, org := range []Organization{DDR4x16(), DDR4x4()} {
		line := make([]byte, 64)
		line[0] = 0xFF
		b := NewRegion(org.Pins, org.BurstLen)
		for c := 0; c < org.ChipsPerRank; c++ {
			SplitChip(&org, line, c, b)
			for p := 0; p < org.Pins; p++ {
				want := c*org.Pins+p < 8
				for beat := 0; beat < org.BurstLen; beat++ {
					if b.Get(p, beat) != (want && beat == 0) {
						t.Fatalf("x%d chip %d pin %d beat %d wrong", org.Pins, c, p, beat)
					}
				}
			}
		}
	}
}

func TestAddressMapperRoundTripUniqueness(t *testing.T) {
	org := DDR4x16()
	org.Rows = 64 // shrink for exhaustiveness
	org.Cols = 8
	m, err := NewAddressMapper(org, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Address]uint64)
	for line := uint64(0); line < m.Capacity(); line++ {
		var a Address
		m.Map(line, &a)
		if a.Rank < 0 || a.Rank >= 2 || a.Group < 0 || a.Group >= org.BankGroups ||
			a.Bank < 0 || a.Bank >= org.BanksPerGrp || a.Row < 0 || a.Row >= org.Rows ||
			a.Col < 0 || a.Col >= org.Cols {
			t.Fatalf("address out of range: %v", a)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("lines %d and %d map to same address %v", prev, line, a)
		}
		seen[a] = line
	}
	if uint64(len(seen)) != m.Capacity() {
		t.Fatal("mapping not a bijection")
	}
}

// mapByDivision is the division form of AddressMapper.Map, the only form
// before power-of-two geometries took shifts and masks, with the flat
// bank FlatBank gave.
func mapByDivision(m *AddressMapper, line uint64) (Address, int) {
	o := m.Org
	col := int(line % uint64(o.Cols))
	line /= uint64(o.Cols)
	rank := int(line % uint64(m.Ranks))
	line /= uint64(m.Ranks)
	bank := int(line % uint64(o.BanksPerGrp))
	line /= uint64(o.BanksPerGrp)
	group := int(line % uint64(o.BankGroups))
	line /= uint64(o.BankGroups)
	row := int(line % uint64(o.Rows))
	group ^= col & (o.BankGroups - 1)
	return Address{Rank: rank, Group: group, Bank: bank, Row: row, Col: col},
		(rank*o.BankGroups+group)*o.BanksPerGrp + bank
}

// TestAddressMapperMatchesDivision maps every line of small geometries,
// and the lines of a second pass beyond Capacity, and requires the
// address the division form gives: on a power-of-two geometry (the
// shift path), and with three ranks, a column count or a row count that
// is not a power of two (the division path).
func TestAddressMapperMatchesDivision(t *testing.T) {
	small := DDR4x16()
	small.Rows, small.Cols = 16, 8
	oddCols := DDR5x16()
	oddCols.Rows, oddCols.Cols = 8, 6
	oddRows := small
	oddRows.Rows = 5
	for _, tc := range []struct {
		name  string
		org   Organization
		ranks int
		pow2  bool
	}{
		{"pow2", small, 2, true},
		{"ranks3", small, 3, false},
		{"cols6", oddCols, 1, false},
		{"rows5", oddRows, 1, false},
	} {
		m, err := NewAddressMapper(tc.org, tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if m.pow2 != tc.pow2 {
			t.Fatalf("%s: shift path %v, want %v", tc.name, m.pow2, tc.pow2)
		}
		for line := uint64(0); line < 2*m.Capacity(); line++ {
			var got Address
			gotFB := m.Map(line, &got)
			if want, wantFB := mapByDivision(m, line); got != want || gotFB != wantFB {
				t.Fatalf("%s: line %d maps to %v in flat bank %d, division form %v in %d",
					tc.name, line, got, gotFB, want, wantFB)
			}
		}
	}
}

func TestAddressMapperSpreadsBankGroups(t *testing.T) {
	// Consecutive lines must not all hit the same bank group (the XOR
	// permutation's purpose).
	m, _ := NewAddressMapper(DDR4x16(), 1)
	groups := make(map[int]bool)
	for line := uint64(0); line < 8; line++ {
		var a Address
		m.Map(line, &a)
		groups[a.Group] = true
	}
	if len(groups) < 2 {
		t.Fatal("consecutive lines all in one bank group")
	}
}

// TestFlatBankDense maps every line of a small two-rank geometry and
// requires the flat bank Map returns to name each (rank, group, bank)
// triple with its own index in [0, NumFlatBanks), every index used.
func TestFlatBankDense(t *testing.T) {
	org := DDR4x16()
	org.Rows, org.Cols = 4, 8
	m, _ := NewAddressMapper(org, 2)
	type triple struct{ rank, group, bank int }
	seen := make(map[int]triple)
	for line := uint64(0); line < m.Capacity(); line++ {
		var a Address
		fb := m.Map(line, &a)
		if fb < 0 || fb >= m.NumFlatBanks() {
			t.Fatalf("flat bank %d out of range", fb)
		}
		tr := triple{a.Rank, a.Group, a.Bank}
		if prev, ok := seen[fb]; ok && prev != tr {
			t.Fatalf("flat bank %d duplicated: %v and %v", fb, prev, tr)
		}
		seen[fb] = tr
	}
	if len(seen) != m.NumFlatBanks() {
		t.Fatal("flat bank indices not dense")
	}
}

func TestNewAddressMapperValidation(t *testing.T) {
	if _, err := NewAddressMapper(DDR4x16(), 0); err == nil {
		t.Fatal("0 ranks accepted")
	}
	bad := DDR4x16()
	bad.Pins = 3
	if _, err := NewAddressMapper(bad, 1); err == nil {
		t.Fatal("invalid organization accepted")
	}
}
