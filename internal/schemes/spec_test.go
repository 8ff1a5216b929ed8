package schemes

import (
	"strings"
	"testing"

	"pair/internal/core"
)

// TestParseSpecErrors rejects malformed specs through New, with the
// package prefix on the grammar's error.
func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{"", "@ddr4x16", "pair@", "pair:spare", "pair:=3", "pair:a=1,a=2", "pair:spare=3:7"} {
		if _, err := New(in); err == nil || !strings.HasPrefix(err.Error(), "schemes: ") {
			t.Errorf("New(%q) error %v, want a schemes: error", in, err)
		}
	}
}

func TestNewErrorsEnumerateRegistry(t *testing.T) {
	_, err := New("quantum")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, id := range schemeReg.IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("unknown-scheme error %q does not enumerate %q", err, id)
		}
	}

	_, err = New("secded@ddr4x16")
	if err == nil {
		t.Fatal("unsupported org accepted")
	}
	if !strings.Contains(err.Error(), "ddr4x8ecc") {
		t.Fatalf("unsupported-org error %q does not enumerate the valid orgs", err)
	}

	_, err = New("pair@nowhere")
	if err == nil || !strings.Contains(err.Error(), "ddr4x16") {
		t.Fatalf("unknown-org error %q does not enumerate pair's orgs", err)
	}

	_, err = New("duo:spare=1")
	if err == nil || !strings.Contains(err.Error(), "no options") {
		t.Fatalf("option on option-less scheme: %v", err)
	}

	_, err = New("pair:bogus=1")
	if err == nil || !strings.Contains(err.Error(), "spare") {
		t.Fatalf("unknown-option error %q does not enumerate valid keys", err)
	}

	// compose(...) parses, but no scheme registers under "compose".
	_, err = New("compose(pair)")
	if err == nil || !strings.Contains(err.Error(), `unknown scheme "compose"`) {
		t.Fatalf("compose as a scheme: %v", err)
	}

	_, err = New("pair:chip=1")
	if err == nil {
		t.Fatal("chip without spare accepted")
	}

	_, err = New("pair:spare=3.3")
	if err == nil || !strings.Contains(err.Error(), "pin 3") {
		t.Fatalf("repeated spared pin: error %v, want one naming pin 3", err)
	}

	// A PAIR codeword longer than the field's 255 nonzero points cannot
	// exist: the spec is an error, never a panic.
	for _, spec := range []string{"pair:exp=300", "pair:base=240"} {
		if _, err := New(spec); err == nil || !strings.Contains(err.Error(), "255") {
			t.Fatalf("%s: error %v, want the 255-symbol limit", spec, err)
		}
	}
}

func TestSpecVariants(t *testing.T) {
	// pair@ddr5x16: two symbols per pin, RS(36,32) at t=2.
	s := MustNew("pair@ddr5x16")
	ps, ok := s.(*core.Scheme)
	if !ok {
		t.Fatalf("pair@ddr5x16 built %T", s)
	}
	if ps.Org().BurstLen != 16 || ps.CodewordLength() != 36 || ps.T() != 2 {
		t.Fatalf("pair@ddr5x16: BL%d RS(%d,·) t=%d", ps.Org().BurstLen, ps.CodewordLength(), ps.T())
	}

	// Spared-PAIR purely via the spec grammar, wrapping core.WithSparedPins.
	sp, ok := MustNew("pair:spare=3.7,chip=2").(*core.SparedScheme)
	if !ok {
		t.Fatal("spare spec did not build a SparedScheme")
	}
	if sp.SparedPins() != 2 || sp.Name() != "pair-spared" {
		t.Fatalf("spared spec: %d pins, name %q", sp.SparedPins(), sp.Name())
	}

	// Expansion / latency overrides.
	e4 := MustNew("pair:exp=4,lat=3.5").(*core.Scheme)
	if e4.CodewordLength() != 22 || e4.T() != 3 || e4.Cost().DecodeLatencyNS != 3.5 {
		t.Fatalf("pair:exp=4,lat=3.5 built RS(%d,·) t=%d lat=%v", e4.CodewordLength(), e4.T(), e4.Cost().DecodeLatencyNS)
	}

	// exp=0 on the pair entry degrades to the base code (reported name follows).
	if s := MustNew("pair:exp=0"); s.Name() != "pair-base" {
		t.Fatalf("pair:exp=0 named %q", s.Name())
	}
}

func TestParseSpecList(t *testing.T) {
	got, err := ParseSpecList("pair@ddr5x16,pair:spare=3.7,chip=1,iecc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		names := []string{}
		for _, s := range got {
			names = append(names, s.Name())
		}
		t.Fatalf("ParseSpecList split into %v", names)
	}
	if got[0].Org().BurstLen != 16 || got[1].Name() != "pair-spared" || got[2].Name() != "iecc" {
		t.Fatalf("ParseSpecList built %s/%s/%s", got[0].Name(), got[1].Name(), got[2].Name())
	}

	// Whitespace separation also works.
	got, err = ParseSpecList("pair:spare=3.7 duo")
	if err != nil || len(got) != 2 || got[1].Name() != "duo" {
		t.Fatalf("whitespace list: %v (%d schemes)", err, len(got))
	}

	// A comma before a spec that has its own ':' starts a new spec, as
	// in a fault list.
	got, err = ParseSpecList("pair:exp=4,pair:lat=5")
	if err != nil || len(got) != 2 || got[0].Cost().DecodeLatencyNS == 5 || got[1].Cost().DecodeLatencyNS != 5 {
		t.Fatalf("two optioned specs: %v (%d schemes)", err, len(got))
	}

	if _, err := ParseSpecList("pair,quantum"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestSetsBuild(t *testing.T) {
	for _, set := range setReg.All() {
		built := MustBuildSet(set.ID)
		if len(built) != len(set.Specs) {
			t.Fatalf("set %s built %d of %d", set.ID, len(built), len(set.Specs))
		}
	}
	if _, err := BuildSet("nope"); err == nil || !strings.Contains(err.Error(), "eval") {
		t.Fatalf("unknown-set error should enumerate sets: %v", err)
	}
}

func TestCanonicalSpec(t *testing.T) {
	e, _ := Lookup("pair")
	if CanonicalSpec(e, "") != "pair" || CanonicalSpec(e, "ddr4x16") != "pair" || CanonicalSpec(e, "ddr5x16") != "pair@ddr5x16" {
		t.Fatal("CanonicalSpec wrong")
	}
}
