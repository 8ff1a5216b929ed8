package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// padW rounds a codeword count up to the slab-width multiple.
func padW(n int) int { return (n + 7) &^ 7 }

// loadSlab builds a slab holding the received words (zero-padded tail).
func loadSlab(n int, rxs [][]byte) *Slab {
	s := NewSlab(n, padW(len(rxs)))
	for i, rx := range rxs {
		s.SetCodeword(i, rx)
	}
	s.ZeroTail(len(rxs))
	return s
}

// checkBatchAgainstScalar asserts DecodeBatch is extensionally equal to a
// per-codeword DecodeInto loop on the same received words and erasures.
func checkBatchAgainstScalar(t *testing.T, c *Code, ws *BatchWorkspace, rxs [][]byte, erasures []int) {
	t.Helper()
	s := loadSlab(c.N, rxs)
	nchanged := make([]int, s.W())
	errs := make([]error, s.W())
	ws.DecodeBatch(s, erasures, nchanged, errs)

	dec := c.NewDecoder()
	got := make([]byte, c.N)
	want := make([]byte, c.N)
	for i, rx := range rxs {
		s.CodewordInto(got, i)
		wantN, wantErr := dec.DecodeInto(want, rx, erasures)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("codeword %d: batch err %v, scalar err %v", i, errs[i], wantErr)
		}
		if wantErr != nil {
			if errs[i].Error() != wantErr.Error() {
				t.Fatalf("codeword %d: batch err %q, scalar err %q", i, errs[i], wantErr)
			}
			if !bytes.Equal(got, rx) {
				t.Fatalf("codeword %d: slab modified on error", i)
			}
			continue
		}
		if nchanged[i] != wantN {
			t.Fatalf("codeword %d: batch nchanged %d, scalar %d", i, nchanged[i], wantN)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("codeword %d: batch %x, scalar %x", i, got, want)
		}
	}
	// Padding codewords are zero words: they must behave exactly like a
	// scalar decode of the zero word (clean for any valid erasure list,
	// failing the same way for invalid ones) and must stay zero.
	zero := make([]byte, c.N)
	wantN, wantErr := dec.DecodeInto(want, zero, erasures)
	for i := len(rxs); i < s.W(); i++ {
		if (errs[i] == nil) != (wantErr == nil) || nchanged[i] != wantN {
			t.Fatalf("padding codeword %d: n=%d err=%v, scalar n=%d err=%v",
				i, nchanged[i], errs[i], wantN, wantErr)
		}
		s.CodewordInto(got, i)
		for _, v := range got {
			if v != 0 {
				t.Fatalf("padding codeword %d not zero: %x", i, got)
			}
		}
	}
}

// corruptedBatch builds a mixed bag of received words for the code: clean,
// 1-error, t-error, beyond-bound and burst patterns, deterministic per seed.
func corruptedBatch(rng *rand.Rand, encode func([]byte) []byte, n, k, count int) [][]byte {
	rxs := make([][]byte, count)
	for i := range rxs {
		msg := make([]byte, k)
		rng.Read(msg)
		rx := encode(msg)
		nerr := rng.Intn(n - k + 2) // 0 .. np+1: clean through beyond-bound
		for e := 0; e < nerr; e++ {
			rx[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
		rxs[i] = rx
	}
	return rxs
}

func TestDecodeBatchMatchesScalar(t *testing.T) {
	shapes := []struct{ n, k int }{{20, 16}, {18, 16}, {81, 64}, {15, 11}}
	for _, sh := range shapes {
		c := MustNew(sh.n, sh.k)
		ws := c.NewBatchWorkspace()
		rng := rand.New(rand.NewSource(int64(sh.n)))
		// Width 9 forces tail padding; width 16 exercises multiple lanes.
		for _, count := range []int{9, 16} {
			rxs := corruptedBatch(rng, c.Encode, sh.n, sh.k, count)
			checkBatchAgainstScalar(t, c, ws, rxs, nil)
			checkBatchAgainstScalar(t, c, ws, rxs, []int{0})
			checkBatchAgainstScalar(t, c, ws, rxs, []int{3, sh.n - 1})
			// Over-budget and out-of-range erasure lists must fail the
			// whole slab the way the scalar decoder fails each word.
			over := make([]int, sh.n-sh.k+1)
			for i := range over {
				over[i] = i
			}
			checkBatchAgainstScalar(t, c, ws, rxs, over)
			checkBatchAgainstScalar(t, c, ws, rxs, []int{-1})
			checkBatchAgainstScalar(t, c, ws, rxs, []int{sh.n})
		}
	}
}

func TestDecodeBatchCleanSlab(t *testing.T) {
	c := MustNew(20, 16)
	ws := c.NewBatchWorkspace()
	rng := rand.New(rand.NewSource(5))
	rxs := make([][]byte, 64)
	for i := range rxs {
		msg := make([]byte, 16)
		rng.Read(msg)
		rxs[i] = c.Encode(msg)
	}
	s := loadSlab(c.N, rxs)
	nchanged := make([]int, s.W())
	errs := make([]error, s.W())
	if ndirty := ws.DecodeBatch(s, nil, nchanged, errs); ndirty != 0 {
		t.Fatalf("clean slab reported %d dirty codewords", ndirty)
	}
	got := make([]byte, c.N)
	for i, rx := range rxs {
		s.CodewordInto(got, i)
		if !bytes.Equal(got, rx) {
			t.Fatalf("clean codeword %d modified", i)
		}
	}
}

func TestDecodeBatchZeroAllocSteadyState(t *testing.T) {
	c := MustNew(20, 16)
	ws := c.NewBatchWorkspace()
	rng := rand.New(rand.NewSource(9))
	rxs := corruptedBatch(rng, c.Encode, 20, 16, 32)
	s := loadSlab(c.N, rxs)
	nchanged := make([]int, s.W())
	errs := make([]error, s.W())
	ws.DecodeBatch(s, nil, nchanged, errs) // warm up (dirty mask growth)
	allocs := testing.AllocsPerRun(100, func() {
		ws.DecodeBatch(s, nil, nchanged, errs)
	})
	if allocs != 0 {
		t.Fatalf("DecodeBatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestEncodeBatchMatchesScalar(t *testing.T) {
	for _, sh := range []struct{ n, k int }{{20, 16}, {18, 16}, {81, 64}} {
		c := MustNew(sh.n, sh.k)
		rng := rand.New(rand.NewSource(int64(sh.k)))
		const count = 11
		s := NewSlab(sh.n, padW(count))
		msgs := make([][]byte, count)
		for i := range msgs {
			msgs[i] = make([]byte, sh.k)
			rng.Read(msgs[i])
			s.SetData(i, msgs[i])
		}
		s.ZeroTail(count)
		c.EncodeBatch(s)
		got := make([]byte, sh.n)
		for i, msg := range msgs {
			s.CodewordInto(got, i)
			if want := c.Encode(msg); !bytes.Equal(got, want) {
				t.Fatalf("(%d,%d) codeword %d: batch %x, scalar %x", sh.n, sh.k, i, got, want)
			}
		}
	}
}

func TestEncodeBatchZeroAllocSteadyState(t *testing.T) {
	c := MustNew(20, 16)
	s := NewSlab(c.N, 64)
	rng := rand.New(rand.NewSource(3))
	msg := make([]byte, 16)
	for i := 0; i < 64; i++ {
		rng.Read(msg)
		s.SetData(i, msg)
	}
	c.EncodeBatch(s) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		c.EncodeBatch(s)
	})
	if allocs != 0 {
		t.Fatalf("EncodeBatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestSlabAccessors(t *testing.T) {
	s := NewSlab(5, 16)
	word := []byte{1, 2, 3, 4, 5}
	s.SetCodeword(9, word)
	for pos, v := range word {
		if got := s.At(9, pos); got != v {
			t.Fatalf("At(9,%d) = %d, want %d", pos, got, v)
		}
	}
	s.Set(9, 2, 0xAA)
	got := make([]byte, 5)
	s.CodewordInto(got, 9)
	if want := []byte{1, 2, 0xAA, 4, 5}; !bytes.Equal(got, want) {
		t.Fatalf("CodewordInto = %v, want %v", got, want)
	}
	// Neighbours must be untouched.
	for _, cw := range []int{8, 10} {
		s.CodewordInto(got, cw)
		for pos, v := range got {
			if v != 0 {
				t.Fatalf("codeword %d position %d contaminated: %d", cw, pos, v)
			}
		}
	}
	// ZeroTail clears exactly the tail.
	s.SetCodeword(3, word)
	s.SetCodeword(11, word)
	s.ZeroTail(9)
	s.CodewordInto(got, 3)
	if !bytes.Equal(got, word) {
		t.Fatalf("ZeroTail(9) clobbered codeword 3: %v", got)
	}
	for _, cw := range []int{9, 11, 15} {
		s.CodewordInto(got, cw)
		for _, v := range got {
			if v != 0 {
				t.Fatalf("ZeroTail(9) left codeword %d dirty: %v", cw, got)
			}
		}
	}
}

func TestExpandableDecodeBatchMatchesScalar(t *testing.T) {
	for _, sh := range []struct{ n, k int }{{20, 16}, {18, 16}, {26, 16}} {
		e, err := NewEvaluation(sh.n, sh.k)
		if err != nil {
			t.Fatal(err)
		}
		n, k := e.N, e.K
		ws := e.NewBatchWorkspace()
		rng := rand.New(rand.NewSource(int64(n)))
		rxs := corruptedBatch(rng, e.Encode, n, k, 13)
		checkBatchAgainstScalar(t, e, ws, rxs, nil)
		checkBatchAgainstScalar(t, e, ws, rxs, []int{0})
		checkBatchAgainstScalar(t, e, ws, rxs, []int{3, 3, n - 1}) // duplicates dedup
		over := make([]int, n-k+1)
		for i := range over {
			over[i] = i
		}
		checkBatchAgainstScalar(t, e, ws, rxs, over)
		checkBatchAgainstScalar(t, e, ws, rxs, []int{-1})
		checkBatchAgainstScalar(t, e, ws, rxs, []int{n})
		// Budget exhaustion: more erasures than n-K survivors allow.
		tooMany := make([]int, n-k+2)
		for i := range tooMany {
			tooMany[i] = i
		}
		checkBatchAgainstScalar(t, e, ws, rxs, tooMany)
	}
}

func TestExpandableEncodeBatchMatchesScalar(t *testing.T) {
	for _, sh := range []struct{ n, k int }{{20, 16}, {18, 16}, {26, 16}} {
		e, err := NewEvaluation(sh.n, sh.k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(sh.k)))
		const count = 10
		s := NewSlab(sh.n, padW(count))
		msgs := make([][]byte, count)
		for i := range msgs {
			msgs[i] = make([]byte, sh.k)
			rng.Read(msgs[i])
			s.SetData(i, msgs[i])
		}
		s.ZeroTail(count)
		e.EncodeBatch(s)
		got := make([]byte, sh.n)
		for i, msg := range msgs {
			s.CodewordInto(got, i)
			if want := e.Encode(msg); !bytes.Equal(got, want) {
				t.Fatalf("(%d,%d) codeword %d: batch %x, scalar %x", sh.n, sh.k, i, got, want)
			}
		}
	}
}

func TestExpandableDecodeBatchZeroAllocSteadyState(t *testing.T) {
	e, err := NewEvaluation(20, 16)
	if err != nil {
		t.Fatal(err)
	}
	ws := e.NewBatchWorkspace()
	rng := rand.New(rand.NewSource(17))
	rxs := corruptedBatch(rng, e.Encode, 20, 16, 32)
	s := loadSlab(20, rxs)
	nchanged := make([]int, s.W())
	errs := make([]error, s.W())
	ws.DecodeBatch(s, nil, nchanged, errs) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		ws.DecodeBatch(s, nil, nchanged, errs)
	})
	if allocs != 0 {
		t.Fatalf("expandable DecodeBatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

func FuzzDecodeBatch(f *testing.F) {
	c := MustNew(20, 16)
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint8(20))
	f.Fuzz(func(t *testing.T, corrupt []byte, epos uint8) {
		const count = 8
		rng := rand.New(rand.NewSource(42))
		rxs := make([][]byte, count)
		for i := range rxs {
			msg := make([]byte, 16)
			rng.Read(msg)
			rxs[i] = c.Encode(msg)
		}
		// Apply the fuzzed corruption as (codeword, position, xor) triples.
		for i := 0; i+2 < len(corrupt); i += 3 {
			rxs[int(corrupt[i])%count][int(corrupt[i+1])%c.N] ^= corrupt[i+2]
		}
		var erasures []int
		if epos > 0 {
			erasures = []int{int(epos) % c.N}
		}
		ws := c.NewBatchWorkspace()
		checkBatchAgainstScalar(t, c, ws, rxs, erasures)
	})
}
