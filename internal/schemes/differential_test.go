package schemes

import (
	"bytes"
	"math/rand"
	"testing"

	"pair/internal/ecc"
)

// TestDifferentialAllSchemesAllOrgs round-trips random lines through
// every registered scheme on EVERY organization it claims to support —
// the seed tests only exercised default-organization constructors. For
// each (scheme, org) pair it checks fault-free Encode/Decode identity
// (on fresh and on reused buffers), a sane non-negative AccessCost, and
// TotalBits consistency between the two.
func TestDifferentialAllSchemesAllOrgs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range allOrgSpecs() {
		s, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		t.Run(spec, func(t *testing.T) {
			testRoundTrip(t, rng, s)
		})
	}
}

// allOrgSpecs returns the canonical spec of every registered scheme on
// every organization it supports.
func allOrgSpecs() []string {
	var specs []string
	for _, e := range All() {
		for _, orgID := range e.Orgs {
			specs = append(specs, CanonicalSpec(e, orgID))
		}
	}
	return specs
}

func testRoundTrip(t *testing.T, rng *rand.Rand, s ecc.Scheme) {
	cost := s.Cost()
	if cost.ExtraReadBeats < 0 || cost.ExtraWriteBeats < 0 || cost.DecodeLatencyNS < 0 ||
		cost.ExtraWritesPerWrite < 0 || cost.ExtraReadsPerWrite < 0 ||
		cost.ExtraReadsPerMaskedWrite < 0 || cost.DetectionRereadRate < 0 {
		t.Fatalf("negative AccessCost field: %+v", cost)
	}
	if ovh := s.StorageOverhead(); ovh < 0 || ovh > 2 {
		t.Fatalf("implausible storage overhead %v", ovh)
	}

	line := make([]byte, s.Org().LineBytes())
	st := s.NewStored()
	dst := [][]byte{make([]byte, len(line))}
	claims := make([]ecc.Claim, 1)
	totalBits := -1
	for trial := 0; trial < 25; trial++ {
		rng.Read(line)
		stored := ecc.Encode(s, line)
		if totalBits == -1 {
			totalBits = stored.TotalBits()
			if totalBits < len(line)*8 {
				t.Fatalf("stored image smaller than the line: %d bits", totalBits)
			}
		} else if got := stored.TotalBits(); got != totalBits {
			t.Fatalf("TotalBits drifted across encodes: %d then %d", totalBits, got)
		}
		got, claim := ecc.Decode(s, stored)
		if claim != ecc.ClaimClean || !bytes.Equal(got, line) {
			t.Fatalf("fault-free decode: claim %v, match %v", claim, bytes.Equal(got, line))
		}
		s.EncodeBatchInto([]*ecc.Stored{st}, [][]byte{line})
		if got := st.TotalBits(); got != totalBits {
			t.Fatalf("reused image TotalBits %d != %d", got, totalBits)
		}
		s.DecodeBatchInto(dst, []*ecc.Stored{st}, claims)
		if claims[0] != ecc.ClaimClean || !bytes.Equal(dst[0], line) {
			t.Fatalf("reused-buffer fault-free decode: claim %v, match %v", claims[0], bytes.Equal(dst[0], line))
		}
	}
}

// TestZeroLineEncodesToZeroImage checks the first premise of the
// reliability engine's all-zero-codeword trials: every scheme, on every
// organization it supports and in its spared PAIR variant, encodes the
// all-zero line to an image with no bit set in any chip or region, both
// fresh and over an image with every stored bit set.
func TestZeroLineEncodesToZeroImage(t *testing.T) {
	for _, spec := range append(allOrgSpecs(), "pair:spare=3.7") {
		s, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		zero := make([]byte, s.Org().LineBytes())
		st := ecc.Encode(s, zero)
		check := func(what string) {
			for i := range st.Chips {
				for r, reg := range st.Chips[i].Regions() {
					if n := reg.PopCount(); n != 0 {
						t.Fatalf("%s: %s sets %d bits in chip %d region %d", spec, what, n, i, r)
					}
				}
			}
		}
		check("Encode(zero line)")
		for i := range st.Chips {
			for b := 0; b < st.Chips[i].TotalBits(); b++ {
				st.Chips[i].Flip(b)
			}
		}
		s.EncodeBatchInto([]*ecc.Stored{st}, [][]byte{zero})
		check("EncodeBatchInto(zero line) over a dirty image")
	}
}

// TestCampaignIDStability pins the frozen campaign/checkpoint identity
// of every seed scheme (built from its registry entry on each supported
// organization). These strings salt every Monte-Carlo seed stream and
// name every checkpoint file: a change here silently reseeds campaigns
// and orphans existing checkpoint directories, so the expected values
// are spelled out literally rather than derived.
func TestCampaignIDStability(t *testing.T) {
	want := map[string]string{
		"none":              "none-x16-bl8-c4",
		"iecc":              "iecc-x16-bl8-c4",
		"xed":               "xed-x16-bl8-c4",
		"duo":               "duo-x16-bl8-c4",
		"duo-rank":          "duo-rank-x8-bl8-c8",
		"pair-base":         "pair-base-x16-bl8-c4",
		"pair":              "pair-x16-bl8-c4",
		"secded":            "secded-x8-bl8-c8",
		"pair@ddr5x16":      "pair-x16-bl16-c2",
		"pair-base@ddr5x16": "pair-base-x16-bl16-c2",
		"pair@ddr4x8":       "pair-x8-bl8-c8",
		"pair@ddr4x4":       "pair-x4-bl8-c16",
		"pair:spare=3.7":    "pair-spared-x16-bl8-c4",
	}
	for spec, id := range want {
		s, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := CampaignID(s); got != id {
			t.Fatalf("CampaignID(%s) = %q, want frozen %q (checkpoint identity must not change)", spec, got, id)
		}
	}
}

func TestListTextMentionsEverything(t *testing.T) {
	text := ListText()
	for _, id := range schemeReg.IDs() {
		if !bytes.Contains([]byte(text), []byte(id)) {
			t.Fatalf("ListText missing scheme %q", id)
		}
	}
	for _, id := range orgReg.IDs() {
		if !bytes.Contains([]byte(text), []byte(id)) {
			t.Fatalf("ListText missing organization %q", id)
		}
	}
	for _, id := range setReg.IDs() {
		if !bytes.Contains([]byte(text), []byte(id)) {
			t.Fatalf("ListText missing set %q", id)
		}
	}
}
