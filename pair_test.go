package pair_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pair"
)

func TestFacadeSchemeConstruction(t *testing.T) {
	all := pair.AllSchemes()
	if len(all) != 6 {
		t.Fatalf("AllSchemes has %d entries", len(all))
	}
	want := []string{"none", "iecc", "xed", "duo", "pair-base", "pair"}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Fatalf("scheme %d is %q, want %q", i, s.Name(), want[i])
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, n := range []string{"none", "iecc", "xed", "duo", "duo-rank", "pair-base", "pair", "secded"} {
		s, err := pair.SchemeBySpec(n)
		if err != nil || s.Name() != n {
			t.Fatalf("SchemeBySpec(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := pair.SchemeBySpec("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestFacadeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range pair.AllSchemes() {
		line := make([]byte, s.Org().LineBytes())
		rng.Read(line)
		decoded, claim := pair.Decode(s, pair.Encode(s, line))
		if pair.Classify(line, decoded, claim) != pair.OutcomeOK {
			t.Fatalf("%s: clean round trip failed", s.Name())
		}
		if !bytes.Equal(decoded, line) {
			t.Fatalf("%s: data mismatch", s.Name())
		}
	}
}

func TestFacadeOrganizations(t *testing.T) {
	if pair.DDR4x16().LineBytes() != 64 {
		t.Fatal("organizations broken")
	}
}

func TestNewPAIRWith(t *testing.T) {
	s, err := pair.NewPAIRWith(pair.DDR4x16(), pair.PAIRConfig{BaseParity: 2, Expansion: 3, DecodeLatencyNS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.CodewordLength() != 21 {
		t.Fatalf("codeword length %d", s.CodewordLength())
	}
	if _, err := pair.NewPAIRWith(pair.DDR4x16(), pair.PAIRConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
