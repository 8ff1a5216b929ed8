package dram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Region is a Pins x Beats bit matrix stored beat-major over Bits: bit
// (pin, beat) is bit index beat*Pins + pin, LSB-first. Bits holds
// (Pins*Beats+7)/8 bytes; padding bits past the last index stay zero. A
// Region is a view, like a slice: copies share Bits. The zero Region is
// the empty (absent) region.
type Region struct {
	Pins, Beats int
	Bits        []byte
}

// NewRegion returns an all-zero region of the given shape.
func NewRegion(pins, beats int) Region {
	if pins <= 0 || beats <= 0 {
		panic(fmt.Sprintf("dram: invalid region shape %dx%d", pins, beats))
	}
	return Region{Pins: pins, Beats: beats, Bits: make([]byte, (pins*beats+7)/8)}
}

// Len returns the number of bits in the region.
func (r Region) Len() int { return r.Pins * r.Beats }

func (r Region) index(pin, beat int) int {
	if pin < 0 || pin >= r.Pins || beat < 0 || beat >= r.Beats {
		panic(fmt.Sprintf("dram: region index (%d,%d) out of %dx%d", pin, beat, r.Pins, r.Beats))
	}
	return beat*r.Pins + pin
}

// Get returns the bit pin carries during beat.
func (r Region) Get(pin, beat int) bool {
	i := r.index(pin, beat)
	return r.Bits[i>>3]&(1<<(i&7)) != 0
}

// Flip toggles the bit pin carries during beat.
func (r Region) Flip(pin, beat int) {
	i := r.index(pin, beat)
	r.Bits[i>>3] ^= 1 << (i & 7)
}

// PopCount returns the number of set bits (the error weight of a mask).
func (r Region) PopCount() int {
	n := 0
	for _, b := range r.Bits {
		n += bits.OnesCount8(b)
	}
	return n
}

// PinSymbolPart returns the 8 bits pin carries during beats
// [8*part, 8*part+8), beat 8*part in bit 0: one pin-aligned symbol (a BL8
// pin carries one, a BL16 pin two).
func (r Region) PinSymbolPart(pin, part int) byte {
	var v byte
	for i := 0; i < 8; i++ {
		if r.Get(pin, part*8+i) {
			v |= 1 << i
		}
	}
	return v
}

// SetPinSymbolPart writes one pin-aligned symbol (inverse of
// PinSymbolPart).
func (r Region) SetPinSymbolPart(pin, part int, v byte) {
	for i := 0; i < 8; i++ {
		if r.Get(pin, part*8+i) != (v&(1<<i) != 0) {
			r.Flip(pin, part*8+i)
		}
	}
}

// Transpose writes the transpose of src into dst: dst bit (beat, pin) is
// src bit (pin, beat), so dst is src.Beats pins by src.Pins beats. On a
// burst with a multiple of 8 beats the transpose is the pin-major view:
// byte p*(Beats/8)+j of dst.Bits is the j-th 8-beat symbol pin p carries.
// Transposing that view back writes the symbols into a burst.
func Transpose(dst, src Region) {
	if dst.Pins != src.Beats || dst.Beats != src.Pins {
		panic(fmt.Sprintf("dram: transpose of %dx%d into %dx%d", src.Pins, src.Beats, dst.Pins, dst.Beats))
	}
	if src.Pins%8 != 0 || src.Beats%8 != 0 {
		clear(dst.Bits)
		for pin := 0; pin < src.Pins; pin++ {
			for beat := 0; beat < src.Beats; beat++ {
				if src.Get(pin, beat) {
					dst.Flip(beat, pin)
				}
			}
		}
		return
	}
	// Whole 8x8 blocks: gather 8 beats of 8 pins, transpose, scatter 8
	// pins of 8 beats.
	sw, dw := src.Pins/8, dst.Pins/8 // bytes per row
	for bb := 0; bb < dw; bb++ {
		rows := src.Bits[bb*8*sw : (bb+1)*8*sw]
		for pb := 0; pb < sw; pb++ {
			var x uint64
			for i := 7; i >= 0; i-- {
				x = x<<8 | uint64(rows[i*sw+pb])
			}
			x = transpose8(x)
			for i := 0; i < 8; i++ {
				dst.Bits[(pb*8+i)*dw+bb] = byte(x)
				x >>= 8
			}
		}
	}
}

// transpose8 transposes the 8x8 bit matrix whose row r is byte r of x
// (bit c of the byte is column c): three rounds of block swaps exchange
// bit 8r+c with bit 8c+r.
func transpose8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// Chip is the stored image one chip contributes to a protected rank
// access. Fault injection distinguishes three regions because real faults
// do:
//
//   - Data: the Pins x BurstLen bits that cross the DQ pins during the
//     burst. Pin faults corrupt exactly these, one pin lane at a time.
//   - OnDie: redundancy that lives in the array and is consumed inside the
//     die (IECC check bits, XED's detector, PAIR's parity symbols), stored
//     as a one-beat region. Cell and array faults reach it; pin faults
//     never do.
//   - Xfer: redundancy that crosses the pins on extension beats (DUO's
//     forwarded redundancy), Pins wide. Pin faults corrupt its lane too.
//
// Absent regions are empty. Stored bit i of a chip indexes Data, then
// OnDie, then Xfer, each in storage order.
type Chip struct {
	Data, OnDie, Xfer Region
}

// Regions returns the chip's regions in stored-bit order.
func (c *Chip) Regions() [3]Region { return [3]Region{c.Data, c.OnDie, c.Xfer} }

// TotalBits returns the number of stored bits of the chip.
func (c *Chip) TotalBits() int { return c.Data.Len() + c.OnDie.Len() + c.Xfer.Len() }

// Flip toggles stored bit i of the chip.
func (c *Chip) Flip(i int) {
	r, j := &c.Data, i
	if j >= r.Len() {
		j, r = j-r.Len(), &c.OnDie
		if j >= r.Len() {
			j, r = j-r.Len(), &c.Xfer
			if j >= r.Len() {
				panic(fmt.Sprintf("dram: stored bit %d beyond the chip's %d", i, c.TotalBits()))
			}
		}
	}
	r.Bits[j>>3] ^= 1 << (j & 7)
}

// Shape returns the chip's region sizes.
func (c *Chip) Shape() Shape {
	return Shape{Pins: c.Data.Pins, Beats: c.Data.Beats, OnDie: c.OnDie.Len(), Xfer: c.Xfer.Beats}
}

// Shape is the region sizes of one chip image. It is comparable, so two
// images have the same layout exactly when their chips' shapes are equal.
type Shape struct {
	Pins, Beats int // the Data burst
	OnDie       int // bits of the one-beat on-die region
	Xfer        int // extension beats of the Pins-wide Xfer region
}

// NewChips returns n zeroed chips of shape s, sliced in order from one
// buffer, and that buffer: copying it copies every chip.
func NewChips(n int, s Shape) ([]Chip, []byte) {
	data, onDie, xfer := (s.Pins*s.Beats+7)/8, (s.OnDie+7)/8, (s.Pins*s.Xfer+7)/8
	per := data + onDie + xfer
	buf := make([]byte, n*per)
	chips := make([]Chip, n)
	for i := range chips {
		b := buf[i*per : (i+1)*per : (i+1)*per]
		chips[i].Data = Region{Pins: s.Pins, Beats: s.Beats, Bits: b[:data:data]}
		if s.OnDie > 0 {
			chips[i].OnDie = Region{Pins: s.OnDie, Beats: 1, Bits: b[data : data+onDie : data+onDie]}
		}
		if s.Xfer > 0 {
			chips[i].Xfer = Region{Pins: s.Pins, Beats: s.Xfer, Bits: b[data+onDie:]}
		}
	}
	return chips, buf
}

// SplitChip copies chip's share of the rank access that carries line into
// r, overwriting every bit. Beat b of the access is bits [b*w, (b+1)*w) of
// the line, w = ChipsPerRank*Pins, and chip c carries bits [c*Pins,
// (c+1)*Pins) of each beat.
func SplitChip(o *Organization, line []byte, chip int, r Region) {
	o.checkChip(line, r)
	for b := 0; b < o.BurstLen; b++ {
		i := b*o.ChipsPerRank + chip
		switch o.Pins {
		case 4:
			setNibble(r.Bits, b, nibble(line, i))
		case 8:
			r.Bits[b] = line[i]
		default:
			binary.LittleEndian.PutUint16(r.Bits[2*b:], binary.LittleEndian.Uint16(line[2*i:]))
		}
	}
}

// JoinChip copies r into chip's share of line (inverse of SplitChip),
// leaving the other chips' bits alone.
func JoinChip(o *Organization, line []byte, chip int, r Region) {
	o.checkChip(line, r)
	for b := 0; b < o.BurstLen; b++ {
		i := b*o.ChipsPerRank + chip
		switch o.Pins {
		case 4:
			setNibble(line, i, nibble(r.Bits, b))
		case 8:
			line[i] = r.Bits[b]
		default:
			binary.LittleEndian.PutUint16(line[2*i:], binary.LittleEndian.Uint16(r.Bits[2*b:]))
		}
	}
}

func (o *Organization) checkChip(line []byte, r Region) {
	if len(line) != o.LineBytes() {
		panic(fmt.Sprintf("dram: line length %d, want %d", len(line), o.LineBytes()))
	}
	if r.Pins != o.Pins || r.Beats != o.BurstLen {
		panic(fmt.Sprintf("dram: %dx%d region is not a x%d BL%d burst", r.Pins, r.Beats, o.Pins, o.BurstLen))
	}
}

// nibble returns the i-th 4-bit field of buf.
func nibble(buf []byte, i int) byte { return buf[i/2] >> (4 * (i % 2)) & 0xF }

// setNibble overwrites the i-th 4-bit field of buf with v.
func setNibble(buf []byte, i int, v byte) {
	sh := 4 * (i % 2)
	buf[i/2] = buf[i/2]&^(0xF<<sh) | v<<sh
}
