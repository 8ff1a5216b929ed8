package hamming

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

// word is a stored codeword the way the schemes keep one: data bytes plus
// check bits.
type word struct {
	data  []byte
	check uint16
}

// encode returns the codeword of random data.
func encode(rng *rand.Rand, c *Code) word {
	data := make([]byte, c.K/8)
	rng.Read(data)
	return word{data: data, check: c.CheckBits(data)}
}

// flip toggles codeword position pos (data bits first, then check bits).
func (w word) flip(c *Code, pos int) word {
	out := word{data: append([]byte(nil), w.data...), check: w.check}
	if pos < c.K {
		out.data[pos/8] ^= 1 << (pos % 8)
	} else {
		out.check ^= 1 << (pos - c.K)
	}
	return out
}

// decode corrects a received word the way IECC and SECDED do: syndrome
// CheckBits(data) XOR check, then one flip.
func (w word) decode(c *Code) (word, Outcome) {
	pos, outcome := c.DecodeSyndrome(c.CheckBits(w.data) ^ w.check)
	if outcome == Corrected {
		return w.flip(c, pos), outcome
	}
	return w, outcome
}

func (w word) equal(o word) bool { return bytes.Equal(w.data, o.data) && w.check == o.check }

func TestSECShapes(t *testing.T) {
	// The canonical IECC code: (136,128).
	c := MustSEC(128)
	if c.N != 136 || c.M != 8 {
		t.Fatalf("SEC(128) = (%d,%d) with %d checks, want (136,128) m=8", c.N, c.K, c.M)
	}
	// (71,64) per-64-bit-word variant.
	c = MustSEC(64)
	if c.N != 71 || c.M != 7 {
		t.Fatalf("SEC(64) = (%d,%d), want (71,64)", c.N, c.K)
	}
}

func TestSECDEDShapes(t *testing.T) {
	c := MustSECDED(64)
	if c.N != 72 || c.M != 8 {
		t.Fatalf("SECDED(64) = (%d,%d), want (72,64)", c.N, c.K)
	}
	if !c.IsSECDED() {
		t.Fatal("IsSECDED false")
	}
}

func TestInvalidK(t *testing.T) {
	if _, err := NewSEC(0); err == nil {
		t.Fatal("SEC k=0 accepted")
	}
	if _, err := NewSECDED(-1); err == nil {
		t.Fatal("SECDED k=-1 accepted")
	}
}

func TestColumnsDistinct(t *testing.T) {
	for _, c := range []*Code{MustSEC(128), MustSEC(64), MustSECDED(64), MustSECDED(128)} {
		seen := make(map[uint16]bool)
		for _, col := range c.cols {
			if col == 0 {
				t.Fatal("zero column")
			}
			if seen[col] {
				t.Fatalf("duplicate column %#x", col)
			}
			seen[col] = true
		}
	}
}

func TestEncodeZeroSyndrome(t *testing.T) {
	// The check bits make the full N-bit word's syndrome — the XOR of the
	// columns of every set position — zero.
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*Code{MustSEC(128), MustSECDED(64)} {
		for trial := 0; trial < 100; trial++ {
			w := encode(rng, c)
			var syn uint16
			for pos := 0; pos < c.K; pos++ {
				if w.data[pos/8]&(1<<(pos%8)) != 0 {
					syn ^= c.cols[pos]
				}
			}
			for j := 0; j < c.M; j++ {
				if w.check&(1<<j) != 0 {
					syn ^= c.cols[c.K+j]
				}
			}
			if syn != 0 {
				t.Fatalf("(%d,%d): encoded word has nonzero syndrome", c.N, c.K)
			}
		}
	}
}

func TestCheckBitsMatchesColumnXor(t *testing.T) {
	// The per-byte tables must equal the bit-by-bit definition, including
	// codes whose data bits end mid-byte (bits past K are ignored).
	rng := rand.New(rand.NewSource(8))
	for _, c := range []*Code{MustSEC(128), MustSEC(64), MustSEC(256), MustSECDED(64), MustSEC(11), MustSEC(32)} {
		data := make([]byte, (c.K+7)/8)
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			var want uint16
			for i := 0; i < c.K; i++ {
				if data[i/8]&(1<<(i%8)) != 0 {
					want ^= c.cols[i]
				}
			}
			if got := c.CheckBits(data); got != want {
				t.Fatalf("(%d,%d): CheckBits %#x, column XOR %#x", c.N, c.K, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short data did not panic")
		}
	}()
	MustSEC(128).CheckBits(make([]byte, 15))
}

func TestSingleErrorAlwaysCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []*Code{MustSEC(128), MustSEC(64), MustSECDED(64)} {
		for pos := 0; pos < c.N; pos++ {
			cw := encode(rng, c)
			out, outcome := cw.flip(c, pos).decode(c)
			if outcome != Corrected {
				t.Fatalf("(%d,%d) pos=%d: outcome %v", c.N, c.K, pos, outcome)
			}
			if !out.equal(cw) {
				t.Fatalf("(%d,%d) pos=%d: wrong correction", c.N, c.K, pos)
			}
		}
	}
}

func TestCleanDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustSEC(128)
	cw := encode(rng, c)
	out, outcome := cw.decode(c)
	if outcome != Clean || !out.equal(cw) {
		t.Fatal("clean word not accepted")
	}
}

func TestSECDoubleErrorNeverSilentlyClean(t *testing.T) {
	// Every double error must produce a nonzero syndrome (d >= 3): outcome
	// is Corrected (a miscorrection) or Detected, never Clean.
	rng := rand.New(rand.NewSource(4))
	c := MustSEC(128)
	miscorrections, detections := 0, 0
	for trial := 0; trial < 2000; trial++ {
		cw := encode(rng, c)
		i := rng.Intn(c.N)
		j := rng.Intn(c.N)
		for j == i {
			j = rng.Intn(c.N)
		}
		out, outcome := cw.flip(c, i).flip(c, j).decode(c)
		switch outcome {
		case Clean:
			t.Fatal("double error decoded as clean")
		case Corrected:
			if out.equal(cw) {
				t.Fatal("double error 'corrected' to the true word — impossible")
			}
			miscorrections++
		case Detected:
			detections++
		}
	}
	if miscorrections == 0 {
		t.Fatal("SEC never miscorrected a double error — the IECC hazard is not modeled")
	}
	if detections == 0 {
		t.Fatal("SEC never detected a double error — shortened-code detection missing")
	}
	t.Logf("SEC(136,128) doubles: %d miscorrected, %d detected", miscorrections, detections)
}

func TestSECDEDDetectsAllDoubleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustSECDED(64)
	for trial := 0; trial < 1500; trial++ {
		cw := encode(rng, c)
		i := rng.Intn(c.N)
		j := rng.Intn(c.N)
		for j == i {
			j = rng.Intn(c.N)
		}
		if _, outcome := cw.flip(c, i).flip(c, j).decode(c); outcome != Detected {
			t.Fatalf("SECDED double error at (%d,%d) not detected: %v", i, j, outcome)
		}
	}
}

func TestSECDEDExhaustiveDoubleDetection(t *testing.T) {
	// Exhaustive over all C(72,2) = 2556 double-error positions for one
	// data word: the Hsiao property is structural, not statistical.
	c := MustSECDED(64)
	rng := rand.New(rand.NewSource(6))
	cw := encode(rng, c)
	for i := 0; i < c.N; i++ {
		for j := i + 1; j < c.N; j++ {
			if _, outcome := cw.flip(c, i).flip(c, j).decode(c); outcome != Detected {
				t.Fatalf("double (%d,%d) not detected", i, j)
			}
		}
	}
}

func TestStorageOverhead(t *testing.T) {
	if got := MustSEC(128).StorageOverhead(); got != 8.0/128.0 {
		t.Fatalf("SEC(136,128) overhead %v", got)
	}
	if got := MustSECDED(64).StorageOverhead(); got != 8.0/64.0 {
		t.Fatalf("SECDED(72,64) overhead %v", got)
	}
}

func TestOutcomeString(t *testing.T) {
	if Clean.String() != "clean" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Fatal("Outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome must still render")
	}
}

func TestOversizedCodesRejected(t *testing.T) {
	if _, err := NewSEC(1 << 17); err == nil {
		t.Fatal("SEC beyond 16 check bits accepted")
	}
	if _, err := NewSECDED(1 << 17); err == nil {
		t.Fatal("SECDED beyond 16 check bits accepted")
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSEC did not panic")
		}
	}()
	MustSEC(0)
}

func TestEncoderXORsPlausible(t *testing.T) {
	c := MustSEC(128)
	x := c.EncoderXORs()
	// Each of 128 data columns has weight >= 2 (non-unit), so the total
	// is at least 2*128 - 8; and every column has weight <= 8.
	if x < 2*128-8 || x > 8*128 {
		t.Fatalf("encoder XOR count %d implausible", x)
	}
	// Hsiao (72,64): 56 weight-3 columns + 8 weight-5 columns = 208 ones,
	// minus one per check bit = exactly 200 XORs.
	h := MustSECDED(64)
	if hx := h.EncoderXORs(); hx != 200 {
		t.Fatalf("Hsiao encoder XOR count %d, want 200", hx)
	}
}

func TestSECDEDOddWeightColumns(t *testing.T) {
	c := MustSECDED(64)
	for i, col := range c.cols {
		if bits.OnesCount16(col)%2 != 1 {
			t.Fatalf("column %d has even weight", i)
		}
	}
}

func TestDecodeSyndromeAllocs(t *testing.T) {
	// The per-access decode loops of the on-die schemes lean on CheckBits
	// and DecodeSyndrome being allocation-free.
	c := MustSEC(128)
	cw := encode(rand.New(rand.NewSource(10)), c).flip(c, 40)
	if n := testing.AllocsPerRun(100, func() {
		if _, outcome := c.DecodeSyndrome(c.CheckBits(cw.data) ^ cw.check); outcome != Corrected {
			t.Fatal("unexpected outcome")
		}
	}); n != 0 {
		t.Fatalf("CheckBits+DecodeSyndrome allocate %v objects per run, want 0", n)
	}
}
