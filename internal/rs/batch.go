package rs

// Batch (slab) codec path: encode and decode many codewords per pass with
// bitsliced GF(2^8) kernels.
//
// A Slab stores W codewords of length N position-major and *bitsliced*:
// each position holds, per group of 64 codewords, the 8 bit-planes of its
// symbols (gf256.Planes — bit b of plane i is bit i of codeword b's
// symbol). In this representation multiplying a whole position by a field
// constant is a fixed XOR network across planes, so the batch syndrome
// sweep runs each syndrome's Horner recurrence as straight-line XOR
// chains — the multiply-by-alpha^k networks cost 3, 6 and 9 XORs per 64
// codewords — and folds every accumulator into a one-bit-per-codeword
// dirty mask with word-wide ORs. In the Monte-Carlo campaigns virtually
// every codeword is clean, so almost all work is this single sweep; only
// the dirty minority is gathered out and handed to the scalar Decoder,
// whose behaviour (and therefore the batch path's) is differentially
// pinned against the reference decoders.
//
// The layout is defined logically — bit cw%64 of plane words — so slabs
// are endian-independent and never touch unsafe. Bulk byte writes go
// through SetColumn, which transposes 64 symbols at a time with the
// multiply-gather trick in gf256.PackPlanes.

import (
	"fmt"
	"math/bits"

	"pair/internal/gf256"
)

// Slab is a contiguous batch of W codewords of length N, stored
// position-major in bit planes: symbol pos of codewords [64g, 64g+64) is
// the gf256.Planes at words[(pos*G+g)*8 : +8], where G = ceil(W/64) is
// the group count. W must be a positive multiple of 8; round up and
// zero-pad — the zero word is a valid codeword of every linear code, so
// padding decodes clean.
type Slab struct {
	n, w  int
	g     int // 64-codeword plane groups, ceil(w/64)
	words []uint64
}

// NewSlab allocates a zeroed slab of w codewords of length n. w must be a
// positive multiple of 8.
func NewSlab(n, w int) *Slab {
	if n <= 0 {
		panic(fmt.Sprintf("rs: slab codeword length %d", n))
	}
	if w <= 0 || w%8 != 0 {
		panic(fmt.Sprintf("rs: slab width %d, want a positive multiple of 8", w))
	}
	g := (w + 63) / 64
	return &Slab{n: n, w: w, g: g, words: make([]uint64, n*g*8)}
}

// W returns the slab width in codewords.
func (s *Slab) W() int { return s.w }

// Groups returns the number of 64-codeword plane groups, ceil(W/64).
func (s *Slab) Groups() int { return s.g }

// planes returns the bit planes of position pos for group grp.
func (s *Slab) planes(pos, grp int) *gf256.Planes {
	off := (pos*s.g + grp) * 8
	return (*gf256.Planes)(s.words[off : off+8])
}

// ZeroTail clears codeword slots [from, W) of every position — the padding
// region when fewer than W codewords are loaded.
func (s *Slab) ZeroTail(from int) {
	if from < 0 || from > s.w {
		panic(fmt.Sprintf("rs: slab tail start %d out of range [0,%d]", from, s.w))
	}
	grp0, b := from>>6, uint(from&63)
	keep := uint64(1)<<b - 1 // b == 0 keeps nothing: the group clears whole
	for pos := 0; pos < s.n; pos++ {
		if grp0 < s.g {
			p := s.planes(pos, grp0)
			for i := range p {
				p[i] &= keep
			}
		}
		for g := grp0 + 1; g < s.g; g++ {
			*s.planes(pos, g) = gf256.Planes{}
		}
	}
}

// checkCW panics when cw is outside [0, W): out-of-range writes would
// plant dirty bits in the padding region the sweep relies on being clean.
func (s *Slab) checkCW(cw int) {
	if cw < 0 || cw >= s.w {
		panic(fmt.Sprintf("rs: slab codeword index %d out of range [0,%d)", cw, s.w))
	}
}

// Set writes symbol pos of codeword cw.
func (s *Slab) Set(cw, pos int, v byte) {
	s.checkCW(cw)
	grp, b := cw>>6, uint(cw&63)
	base := (pos*s.g + grp) * 8
	mask := uint64(1) << b
	for i := 0; i < 8; i++ {
		s.words[base+i] = s.words[base+i]&^mask | uint64(v>>i&1)<<b
	}
}

// At reads symbol pos of codeword cw.
func (s *Slab) At(cw, pos int) byte {
	s.checkCW(cw)
	grp, b := cw>>6, uint(cw&63)
	base := (pos*s.g + grp) * 8
	var v byte
	for i := 0; i < 8; i++ {
		v |= byte(s.words[base+i]>>b&1) << i
	}
	return v
}

// SetCodeword stores word (length N) as codeword cw.
func (s *Slab) SetCodeword(cw int, word []byte) {
	if len(word) != s.n {
		panic(fmt.Sprintf("rs: slab codeword length %d, want %d", len(word), s.n))
	}
	s.checkCW(cw)
	grp, b := cw>>6, uint(cw&63)
	mask := uint64(1) << b
	for pos, v := range word {
		base := (pos*s.g + grp) * 8
		for i := 0; i < 8; i++ {
			s.words[base+i] = s.words[base+i]&^mask | uint64(v>>i&1)<<b
		}
	}
}

// SetData stores data (length <= N) into positions [0, len(data)) of
// codeword cw — the message region ahead of an EncodeBatch.
func (s *Slab) SetData(cw int, data []byte) {
	if len(data) > s.n {
		panic(fmt.Sprintf("rs: slab data length %d exceeds codeword length %d", len(data), s.n))
	}
	s.checkCW(cw)
	grp, b := cw>>6, uint(cw&63)
	mask := uint64(1) << b
	for pos, v := range data {
		base := (pos*s.g + grp) * 8
		for i := 0; i < 8; i++ {
			s.words[base+i] = s.words[base+i]&^mask | uint64(v>>i&1)<<b
		}
	}
}

// CodewordInto extracts codeword cw into dst (length N).
func (s *Slab) CodewordInto(dst []byte, cw int) {
	if len(dst) != s.n {
		panic(fmt.Sprintf("rs: slab codeword length %d, want %d", len(dst), s.n))
	}
	s.checkCW(cw)
	grp, b := cw>>6, uint(cw&63)
	for pos := range dst {
		base := (pos*s.g + grp) * 8
		var v byte
		for i := 0; i < 8; i++ {
			v |= byte(s.words[base+i]>>b&1) << i
		}
		dst[pos] = v
	}
}

// SetColumn stores col[j] as symbol pos of codeword grp*64+j for all 64
// j — the bulk transposed write for batch gathers. Entries beyond W must
// be zero so the padding region stays clean.
func (s *Slab) SetColumn(pos, grp int, col *[64]byte) {
	gf256.PackPlanes(s.planes(pos, grp), col)
}

// planesDirty reports whether any of the 64 elements is nonzero.
func planesDirty(p *gf256.Planes) bool {
	return p[0]|p[1]|p[2]|p[3]|p[4]|p[5]|p[6]|p[7] != 0
}

// BatchWorkspace is a Decoder plus the slab scratch of DecodeBatch: a
// gather buffer, the dirty mask and, for codes with non-unit multipliers,
// the block of scaled planes the sweep folds. After the first call on a
// given slab width it allocates nothing. Its Decoder serves scalar
// decodes too, so one workspace per goroutine covers both paths. Like
// Decoder, it is NOT safe for concurrent use.
type BatchWorkspace struct {
	*Decoder
	word   []byte   // N-symbol gather/scatter buffer
	dirty  []uint64 // per-group dirty mask, one bit per codeword
	staged []uint64 // N plane blocks of u_pos-scaled symbols (evaluation view)
}

// NewBatchWorkspace returns a fresh batch workspace for the code.
func (c *Code) NewBatchWorkspace() *BatchWorkspace {
	ws := &BatchWorkspace{Decoder: c.NewDecoder(), word: make([]byte, c.N)}
	if c.evaluation {
		ws.staged = make([]uint64, c.N*8)
	}
	return ws
}

// EncodeBatch overwrites the parity positions [K,N) of every codeword in s
// from its data positions [0,K). It is the batch counterpart of EncodeTo,
// applying the same parity map per data symbol as bitsliced constant
// multiplies into the parity planes.
func (c *Code) EncodeBatch(s *Slab) {
	if s.n != c.N {
		panic(fmt.Sprintf("rs: slab codeword length %d, want %d", s.n, c.N))
	}
	for grp := 0; grp < s.g; grp++ {
		for j := range c.parity {
			*s.planes(c.K+j, grp) = gf256.Planes{}
		}
		for i := 0; i < c.K; i++ {
			src := s.planes(i, grp)
			if !planesDirty(src) {
				continue
			}
			for j, row := range c.parity {
				gf256.MulXorPlanes(s.planes(c.K+j, grp), src, row[i])
			}
		}
	}
}

// DecodeBatch corrects every codeword of s in place. erasures (symbol
// positions flagged unreliable, applied uniformly to every codeword in
// the slab), nchanged[i] and errs[i] mirror Decoder.DecodeInto for
// codeword i: the number of symbols changed, and nil or the decode error.
// nchanged and errs must have length >= s.W(). The result — slab contents,
// counts and errors — is defined to be identical to a per-codeword
// DecodeInto loop; on a codeword's error its slab contents are the
// received word, unchanged.
//
// The return value is the number of dirty codewords that required the
// scalar fallback; 0 means the whole slab was clean and the call cost one
// fused syndrome sweep.
func (ws *BatchWorkspace) DecodeBatch(s *Slab, erasures []int, nchanged []int, errs []error) int {
	c := ws.c
	if s.n != c.N {
		panic(fmt.Sprintf("rs: slab codeword length %d, want %d", s.n, c.N))
	}
	if len(nchanged) < s.w || len(errs) < s.w {
		panic(fmt.Sprintf("rs: result buffers length %d/%d, want >= %d", len(nchanged), len(errs), s.w))
	}
	for i := 0; i < s.w; i++ {
		nchanged[i], errs[i] = 0, nil
	}
	// The scalar decoder applies the erasure policy before it looks at
	// the word; so does the batch path, for every codeword.
	if _, err := ws.erasureList(erasures); err != nil {
		for i := 0; i < s.w; i++ {
			errs[i] = err
		}
		return s.w
	}

	if cap(ws.dirty) < s.g {
		ws.dirty = make([]uint64, s.g)
	}
	dirty := ws.dirty[:s.g]
	if !ws.syndromeSweep(s, dirty) {
		// All-zero syndromes across the slab: every codeword is clean
		// (erasure flags, if any, are consistent) — the fast exit.
		return 0
	}

	ndirty := 0
	for grp, dw := range dirty {
		for dw != 0 {
			cw := grp<<6 + bits.TrailingZeros64(dw)
			dw &= dw - 1
			s.CodewordInto(ws.word, cw)
			n, err := ws.DecodeInto(ws.word, ws.word, erasures)
			if err != nil {
				errs[cw] = err
			} else if n > 0 {
				nchanged[cw] = n
				s.SetCodeword(cw, ws.word)
			}
			ndirty++
		}
	}
	return ndirty
}

// syndromeSweep computes, for every codeword of s, the OR of all its
// syndromes, writing the fold into dirty (one bit per codeword) and
// reporting whether any codeword is dirty. It is the bitsliced form of
// SyndromesInto: every locator is a power of alpha, so syndrome i is the
// Horner recurrence acc = acc*alpha^i + u_pos*r_pos over the positions
// from the highest locator power down to X = 1. The first four syndromes
// (every PAIR and DUO operating point has 2-4) run as hardwired
// multiply-by-alpha^k XOR networks; further ones use the generic
// constant-multiply kernel.
func (ws *BatchWorkspace) syndromeSweep(s *Slab, dirty []uint64) bool {
	c := ws.c
	n, np := c.N, c.N-c.K
	var any uint64
	for grp := 0; grp < s.g; grp++ {
		// BCH view: unit multipliers and X_pos = alpha^(N-1-pos), so the
		// chains fold straight from the slab, first position first.
		words, off, stride := s.words, grp*8, s.g*8
		if c.evaluation {
			// Stage u_pos * r_pos once per position; X_pos = alpha^pos,
			// so the chains walk the staged block from the last position.
			for pos := 0; pos < n; pos++ {
				dst := (*gf256.Planes)(ws.staged[pos*8 : pos*8+8])
				*dst = gf256.Planes{}
				gf256.MulXorPlanes(dst, s.planes(pos, grp), c.mult[pos])
			}
			words, off, stride = ws.staged, (n-1)*8, -8
		}
		d := foldChain0(words, off, stride, n)
		if np > 1 {
			d |= foldChainX(words, off, stride, n)
		}
		if np > 2 {
			d |= foldChainX2(words, off, stride, n)
		}
		if np > 3 {
			d |= foldChainX3(words, off, stride, n)
		}
		for i := 4; i < np; i++ {
			d |= foldChainGen(words, off, stride, n, gf256.Exp(i))
		}
		dirty[grp] = d
		any |= d
	}
	return any != 0
}

// The foldChain kernels below run one syndrome's Horner recurrence over a
// strided sequence of n plane blocks (8 words each, starting at off,
// advancing by stride — negative strides walk positions backwards) and
// return the OR of the accumulator planes: bit b set means codeword b's
// syndrome is nonzero. The multiply-by-alpha^k steps are the bit-plane
// XOR networks of x*alpha^k mod 0x11d, applied to register accumulators.

// foldChain0 folds the alpha^0 syndrome: a plain XOR over all positions.
func foldChain0(words []uint64, off, stride, n int) uint64 {
	var b0, b1, b2, b3, b4, b5, b6, b7 uint64
	for pos := 0; pos < n; pos++ {
		p := words[off : off+8 : off+8]
		b0 ^= p[0]
		b1 ^= p[1]
		b2 ^= p[2]
		b3 ^= p[3]
		b4 ^= p[4]
		b5 ^= p[5]
		b6 ^= p[6]
		b7 ^= p[7]
		off += stride
	}
	return b0 | b1 | b2 | b3 | b4 | b5 | b6 | b7
}

// foldChainX folds a syndrome with root alpha: acc = alpha*acc ^ v.
func foldChainX(words []uint64, off, stride, n int) uint64 {
	var b0, b1, b2, b3, b4, b5, b6, b7 uint64
	for pos := 0; pos < n; pos++ {
		p := words[off : off+8 : off+8]
		t7 := b7
		b7 = b6 ^ p[7]
		b6 = b5 ^ p[6]
		b5 = b4 ^ p[5]
		b4 = b3 ^ t7 ^ p[4]
		b3 = b2 ^ t7 ^ p[3]
		b2 = b1 ^ t7 ^ p[2]
		b1 = b0 ^ p[1]
		b0 = t7 ^ p[0]
		off += stride
	}
	return b0 | b1 | b2 | b3 | b4 | b5 | b6 | b7
}

// foldChainX2 folds a syndrome with root alpha^2.
func foldChainX2(words []uint64, off, stride, n int) uint64 {
	var b0, b1, b2, b3, b4, b5, b6, b7 uint64
	for pos := 0; pos < n; pos++ {
		p := words[off : off+8 : off+8]
		t6, t7 := b6, b7
		b7 = b5 ^ p[7]
		b6 = b4 ^ p[6]
		b5 = b3 ^ t7 ^ p[5]
		b4 = b2 ^ t6 ^ t7 ^ p[4]
		b3 = b1 ^ t6 ^ t7 ^ p[3]
		b2 = b0 ^ t6 ^ p[2]
		b1 = t7 ^ p[1]
		b0 = t6 ^ p[0]
		off += stride
	}
	return b0 | b1 | b2 | b3 | b4 | b5 | b6 | b7
}

// foldChainX3 folds a syndrome with root alpha^3.
func foldChainX3(words []uint64, off, stride, n int) uint64 {
	var b0, b1, b2, b3, b4, b5, b6, b7 uint64
	for pos := 0; pos < n; pos++ {
		p := words[off : off+8 : off+8]
		t5, t6, t7 := b5, b6, b7
		b7 = b4 ^ p[7]
		b6 = b3 ^ t7 ^ p[6]
		b5 = b2 ^ t6 ^ t7 ^ p[5]
		b4 = b1 ^ t5 ^ t6 ^ t7 ^ p[4]
		b3 = b0 ^ t5 ^ t6 ^ p[3]
		b2 = t5 ^ t7 ^ p[2]
		b1 = t6 ^ p[1]
		b0 = t5 ^ p[0]
		off += stride
	}
	return b0 | b1 | b2 | b3 | b4 | b5 | b6 | b7
}

// foldChainGen folds a syndrome with an arbitrary root via the generic
// bitsliced constant multiply.
func foldChainGen(words []uint64, off, stride, n int, root byte) uint64 {
	var acc, tmp gf256.Planes
	for pos := 0; pos < n; pos++ {
		p := words[off : off+8 : off+8]
		tmp = gf256.Planes{}
		gf256.MulXorPlanes(&tmp, &acc, root)
		acc[0] = tmp[0] ^ p[0]
		acc[1] = tmp[1] ^ p[1]
		acc[2] = tmp[2] ^ p[2]
		acc[3] = tmp[3] ^ p[3]
		acc[4] = tmp[4] ^ p[4]
		acc[5] = tmp[5] ^ p[5]
		acc[6] = tmp[6] ^ p[6]
		acc[7] = tmp[7] ^ p[7]
		off += stride
	}
	return acc[0] | acc[1] | acc[2] | acc[3] | acc[4] | acc[5] | acc[6] | acc[7]
}
