package faults

import (
	"math/rand"
	"testing"

	"pair/internal/dram"
)

func newMask() dram.Region { return dram.NewRegion(16, 8) }

// newChip returns a chip access with only a 16x8 data burst.
func newChip() *dram.Chip { return &dram.Chip{Data: newMask()} }

func TestKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestDefaultFITTableSane(t *testing.T) {
	table := DefaultFITTable()
	if len(table) == 0 {
		t.Fatal("empty FIT table")
	}
	seen := map[Kind]bool{}
	for _, e := range table {
		if e.Rate <= 0 {
			t.Fatalf("%v has non-positive rate", e.Kind)
		}
		if seen[e.Kind] {
			t.Fatalf("%v duplicated", e.Kind)
		}
		seen[e.Kind] = true
	}
	if seen[InherentCell] {
		t.Fatal("inherent cells are a rate parameter, not a FIT entry")
	}
}

func TestInjectInherentRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total, flips := 0, 0
	for trial := 0; trial < 2000; trial++ {
		flips += InjectInherent(rng, newChip(), 0.01)
		total += 128
	}
	rate := float64(flips) / float64(total)
	if rate < 0.007 || rate > 0.013 {
		t.Fatalf("observed BER %.4f, want ~0.01", rate)
	}
	m := newChip()
	if InjectInherent(rng, m, 0) != 0 || m.Data.PopCount() != 0 {
		t.Fatal("BER 0 flipped bits")
	}
}

func TestInjectNCells(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 5; n++ {
		m := newChip()
		if got := InjectNCells(rng, m, n); got != n || m.Data.PopCount() != n {
			t.Fatalf("n=%d: injected %d, popcount %d", n, got, m.Data.PopCount())
		}
	}
	// Saturation: more cells than bits.
	m := newChip()
	if got := InjectNCells(rng, m, 1000); got != 128 {
		t.Fatalf("saturated injection = %d, want 128", got)
	}
}

func TestInjectPinConfinedToOnePin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := newChip()
		n := InjectPin(rng, m)
		if n == 0 {
			t.Fatal("pin fault flipped nothing")
		}
		pins := map[int]bool{}
		for pin := 0; pin < m.Data.Pins; pin++ {
			if m.Data.PinSymbolPart(pin, 0) != 0 {
				pins[pin] = true
			}
		}
		if len(pins) != 1 {
			t.Fatalf("pin fault touched %d pins", len(pins))
		}
	}
}

func TestInjectLaneSingleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := newMask()
	if InjectLane(rng, m) != 1 || m.PopCount() != 1 {
		t.Fatal("lane fault is not a single bit")
	}
}

func TestInjectBeatConfinedToOneBeat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m := newMask()
		InjectBeat(rng, m)
		beats := map[int]bool{}
		for pin := 0; pin < m.Pins; pin++ {
			for beat := 0; beat < m.Beats; beat++ {
				if m.Get(pin, beat) {
					beats[beat] = true
				}
			}
		}
		if len(beats) != 1 {
			t.Fatalf("beat fault touched %d beats", len(beats))
		}
	}
}

func TestInjectWordNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		m := newChip()
		if InjectWord(rng, m) == 0 || m.Data.PopCount() == 0 {
			t.Fatal("word fault flipped nothing")
		}
	}
}

func TestInjectPinBurstContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for b := 1; b <= 8; b++ {
		m := newMask()
		if got := InjectPinBurst(rng, m, b); got != b || m.PopCount() != b {
			t.Fatalf("b=%d: injected %d bits", b, m.PopCount())
		}
		// All on one pin, contiguous beats.
		var pin = -1
		beats := []int{}
		for p := 0; p < m.Pins; p++ {
			for beat := 0; beat < m.Beats; beat++ {
				if m.Get(p, beat) {
					if pin == -1 {
						pin = p
					} else if pin != p {
						t.Fatal("pin burst spans pins")
					}
					beats = append(beats, beat)
				}
			}
		}
		for i := 1; i < len(beats); i++ {
			if beats[i] != beats[i-1]+1 {
				t.Fatal("pin burst not contiguous")
			}
		}
	}
	// Over-length burst clamps.
	m := newMask()
	if InjectPinBurst(rng, m, 100) != 8 {
		t.Fatal("over-length pin burst did not clamp")
	}
}

func TestInjectBeatBurstContiguousPins(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for b := 1; b <= 16; b++ {
		m := newMask()
		if got := InjectBeatBurst(rng, m, b); got != b || m.PopCount() != b {
			t.Fatalf("b=%d: injected %d bits", b, m.PopCount())
		}
	}
	m := newMask()
	if InjectBeatBurst(rng, m, 100) != 16 {
		t.Fatal("over-length beat burst did not clamp")
	}
}

func TestSampleFootprints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	org := dram.DDR4x16()
	cases := []struct {
		kind Kind
		want int64
	}{
		{PermanentCell, 1},
		{PermanentWord, 1},
		{PermanentPin, int64(org.Banks()) * int64(org.Rows) * int64(org.Cols)},
		{PermanentColumn, int64(org.Rows)},
		{PermanentRow, int64(org.Cols)},
		{PermanentBank, int64(org.Rows) * int64(org.Cols)},
	}
	for _, c := range cases {
		f := Sample(rng, c.kind, org)
		if got := f.FootprintAccesses(org); got != c.want {
			t.Fatalf("%v footprint %d, want %d", c.kind, got, c.want)
		}
	}
}

func TestAffects(t *testing.T) {
	f := Fault{Kind: PermanentColumn, Bank: 2, Row: -1, Col: 5}
	if !f.Affects(2, 100, 5) || f.Affects(2, 100, 6) || f.Affects(3, 100, 5) {
		t.Fatal("Affects logic wrong")
	}
}

func TestOverlapAccesses(t *testing.T) {
	org := dram.DDR4x16()
	row := Fault{Kind: PermanentRow, Chip: 0, Bank: 1, Row: 10, Col: -1}
	col := Fault{Kind: PermanentColumn, Chip: 0, Bank: 1, Row: -1, Col: 3}
	if got := row.OverlapAccesses(col, org); got != 1 {
		t.Fatalf("row x column overlap = %d, want 1", got)
	}
	colOtherBank := Fault{Kind: PermanentColumn, Chip: 0, Bank: 2, Row: -1, Col: 3}
	if row.OverlapAccesses(colOtherBank, org) != 0 {
		t.Fatal("different banks overlapped")
	}
	otherChip := Fault{Kind: PermanentColumn, Chip: 1, Bank: 1, Row: -1, Col: 3}
	if row.OverlapAccesses(otherChip, org) != 0 {
		t.Fatal("different chips overlapped at chip level")
	}
	if row.SameRankOverlap(otherChip, org) != 1 {
		t.Fatal("rank-level overlap must ignore chips")
	}
	pin := Fault{Kind: PermanentPin, Chip: 0, Bank: -1, Row: -1, Col: -1}
	if got := pin.OverlapAccesses(row, org); got != int64(org.Cols) {
		t.Fatalf("pin x row overlap = %d, want %d", got, org.Cols)
	}
	cellA := Fault{Kind: PermanentCell, Chip: 0, Bank: 1, Row: 10, Col: 3}
	cellB := Fault{Kind: PermanentCell, Chip: 0, Bank: 1, Row: 10, Col: 3}
	if cellA.OverlapAccesses(cellB, org) != 1 {
		t.Fatal("co-located cells must overlap")
	}
}

func TestIsTransient(t *testing.T) {
	if !(Fault{Kind: TransientBit}).IsTransient() {
		t.Fatal("transient bit not transient")
	}
	if (Fault{Kind: PermanentRow}).IsTransient() {
		t.Fatal("row fault transient")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Kind: PermanentRow, Chip: 1, Bank: 2, Row: 3, Col: -1, Lane: -1}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}
