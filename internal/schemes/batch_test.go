package schemes

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/ecc"
)

// batchSpecs returns every canonical (scheme, org) spec plus the spared
// PAIR variant, so the batch suite covers each registered construction.
func batchSpecs() []string {
	var specs []string
	for _, e := range All() {
		for _, orgID := range e.Orgs {
			specs = append(specs, CanonicalSpec(e, orgID))
		}
	}
	return append(specs, "pair:spare=3.7")
}

// TestBatchDifferentialAllSchemes checks the defining property of the
// batch codec calls against every registered scheme on every
// organization it supports: EncodeBatchInto/DecodeBatchInto at widths 9
// and 16 produce byte- and claim-identical results, image by image, to
// width-1 calls. Each image carries a different injected fault weight
// (0..4 flipped stored bits, cycling), so one batch mixes clean,
// correctable and beyond-bound images, and the spared-PAIR spec
// exercises the per-chip erasure path.
func TestBatchDifferentialAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range batchSpecs() {
		s, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		t.Run(spec, func(t *testing.T) {
			for _, nimg := range []int{9, 16} {
				testBatchDifferential(t, rng, s, nimg)
			}
		})
	}
}

func testBatchDifferential(t *testing.T, rng *rand.Rand, s ecc.Scheme, nimg int) {
	t.Helper()
	lineBytes := s.Org().LineBytes()
	lines := make([][]byte, nimg)
	sts := make([]*ecc.Stored, nimg)
	ref := make([]*ecc.Stored, nimg)
	for i := range sts {
		lines[i] = make([]byte, lineBytes)
		rng.Read(lines[i])
		sts[i] = s.NewStored()
		ref[i] = s.NewStored()
	}

	// Encode: the batch call must rebuild images identical to width-1
	// calls.
	s.EncodeBatchInto(sts, lines)
	for i := range ref {
		s.EncodeBatchInto(ref[i:i+1], lines[i:i+1])
		if !storedEqual(sts[i], ref[i]) {
			t.Fatalf("nimg=%d image %d: width-%d encode differs from width 1", nimg, i, nimg)
		}
	}

	// Inject: image i gets i%5 random stored-bit flips, mixing clean,
	// correctable and beyond-bound images in one batch.
	for i := range sts {
		ecc.FlipRandomStoredBits(rng, sts[i], i%5)
	}

	// Decode both ways from the SAME images (decode does not mutate the
	// stored image) and demand identical bytes and claims.
	oneDst := make([][]byte, nimg)
	batchDst := make([][]byte, nimg)
	oneClaims := make([]ecc.Claim, nimg)
	batchClaims := make([]ecc.Claim, nimg)
	for i := range sts {
		oneDst[i] = make([]byte, lineBytes)
		batchDst[i] = make([]byte, lineBytes)
		s.DecodeBatchInto(oneDst[i:i+1], sts[i:i+1], oneClaims[i:i+1])
	}
	s.DecodeBatchInto(batchDst, sts, batchClaims)
	for i := range sts {
		if batchClaims[i] != oneClaims[i] {
			t.Fatalf("nimg=%d image %d: width-%d claim %v, width-1 claim %v",
				nimg, i, nimg, batchClaims[i], oneClaims[i])
		}
		if !bytes.Equal(batchDst[i], oneDst[i]) {
			t.Fatalf("nimg=%d image %d (claim %v): width-%d bytes differ from width 1",
				nimg, i, oneClaims[i], nimg)
		}
	}
}

// storedEqual reports whether two stored images are bit-identical across
// every chip region.
func storedEqual(a, b *ecc.Stored) bool {
	if ecc.CheckShape(a, b) != nil {
		return false
	}
	for i := range a.Chips {
		rb := b.Chips[i].Regions()
		for j, r := range a.Chips[i].Regions() {
			if !bytes.Equal(r.Bits, rb[j].Bits) {
				return false
			}
		}
	}
	return true
}
