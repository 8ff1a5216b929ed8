package faults

import (
	"strings"
	"testing"

	"pair/internal/registry"
)

// TestParseFaultSpecCanonical pins the Spec of scenarios built from
// representative specs: the canonical form of the spec, which campaign
// labels embed, and rebuilding from it gives it back byte for byte.
func TestParseFaultSpecCanonical(t *testing.T) {
	cases := []struct {
		spec, canonical string
	}{
		{"pin", "pin"},
		{"pinburst:b=4", "pinburst:b=4"},
		{"retention:pop=1e-6,cluster=2.5", "retention:cluster=2.5,pop=1e-6"},
		{"rowhammer:radius=1,rate=0.3", "rowhammer:radius=1,rate=0.3"},
		{"vrt:flicker=0.2", "vrt:flicker=0.2"},
		{"chipkill:chips=2", "chipkill:chips=2"},
		{"inherent:ber=1e-4", "inherent:ber=1e-4"},
		{"compose(pin,inherent:ber=1e-5)", "compose(pin,inherent:ber=1e-5)"},
		{"compose(retention:pop=1e-6,cluster=2.5,pin)", "compose(retention:cluster=2.5,pop=1e-6,pin)"},
		{"compose(compose(pin,lane),vrt:flicker=0.5)", "compose(compose(pin,lane),vrt:flicker=0.5)"},
	}
	for _, c := range cases {
		sc, err := NewScenario(c.spec)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", c.spec, err)
		}
		if got := sc.Spec(); got != c.canonical {
			t.Fatalf("canonical of %q = %q, want %q", c.spec, got, c.canonical)
		}
		again, err := NewScenario(c.canonical)
		if err != nil {
			t.Fatalf("rebuild canonical %q: %v", c.canonical, err)
		}
		if got := again.Spec(); got != c.canonical {
			t.Fatalf("build∘canonical not identity: %q -> %q", c.canonical, got)
		}
	}
}

// TestParseFaultSpecErrors rejects every malformed shape the grammar
// rules out through NewScenario, with the package prefix on the error.
func TestParseFaultSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		":pop=1",
		"retention:pop",
		"retention:=1",
		"retention:pop=1,pop=2",
		"a:k=v:w",
		"compose",
		"compose:k=1",
		"compose()",
		"compose(pin",
		"compose(pin))",
		"pin)",
		"(pin)",
		"compose(pin,)",
		"compose(compose)",
	} {
		if _, err := NewScenario(spec); err == nil || !strings.HasPrefix(err.Error(), "faults: ") {
			t.Fatalf("NewScenario(%q) error %v, want a faults: error", spec, err)
		}
	}
}

// TestNewScenarioErrors drives registry-level rejection: unknown IDs and
// option keys enumerate the valid choices, and option values are
// range-checked by the constructors.
func TestNewScenarioErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"nosuch", "unknown scenario"},
		{"nosuch", "retention"}, // the error enumerates valid IDs
		{"pin:b=1", "takes no options"},
		{"pinburst:len=4", "does not accept"},
		{"pinburst:b=0", "outside"},
		{"pinburst:b=x", "not an integer"},
		{"inherent:ber=2", "outside"},
		{"retention:cluster=0.5", "outside"},
		{"rowhammer:rate=0", "must be > 0"},
		{"vrt:flicker=nan", "outside"},
		{"compose(pin,nosuch)", "unknown scenario"},
		{"pin@ddr4x16", "organization"},
	}
	for _, c := range cases {
		_, err := NewScenario(c.spec)
		if err == nil {
			t.Fatalf("NewScenario(%q) unexpectedly succeeded", c.spec)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("NewScenario(%q) error %q missing %q", c.spec, err, c.want)
		}
	}
}

// TestScenarioSpecRoundTrip checks that every registered scenario's bare
// ID builds and reports itself as its spec, and that option-carrying
// specs surface verbatim through Scenario.Spec.
func TestScenarioSpecRoundTrip(t *testing.T) {
	for _, id := range ScenarioIDs() {
		sc, err := NewScenario(id)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", id, err)
		}
		if sc.Spec() != id {
			t.Fatalf("Spec() of %q = %q", id, sc.Spec())
		}
	}
	sc := MustScenario("retention:pop=1e-6,cluster=2.5")
	if got, want := sc.Spec(), "retention:cluster=2.5,pop=1e-6"; got != want {
		t.Fatalf("Spec() = %q, want canonical %q", got, want)
	}
}

// TestParseFaultSpecList exercises the list splitting rules: whitespace
// always separates, commas separate unless continuing an option list or
// inside compose parentheses.
func TestParseFaultSpecList(t *testing.T) {
	scs, err := ParseFaultSpecList("pin,retention:pop=1e-5,cluster=2 compose(pin,vrt:flicker=0.5),lane")
	if err != nil {
		t.Fatalf("ParseFaultSpecList: %v", err)
	}
	var specs []string
	for _, sc := range scs {
		specs = append(specs, sc.Spec())
	}
	want := []string{"pin", "retention:cluster=2,pop=1e-5", "compose(pin,vrt:flicker=0.5)", "lane"}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs %v, want %v", len(specs), specs, want)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec[%d] = %q, want %q", i, specs[i], want[i])
		}
	}
	if _, err := ParseFaultSpecList("pin,compose(lane"); err == nil {
		t.Fatal("unbalanced compose in a list unexpectedly accepted")
	}
}

// TestComposeProgrammatic checks the Compose combinator's canonical spec
// and its degenerate forms.
func TestComposeProgrammatic(t *testing.T) {
	if Compose() != nil {
		t.Fatal("Compose() should be nil (no ambient corruption)")
	}
	pin := MustScenario("pin")
	if got := Compose(pin); got != pin {
		t.Fatal("Compose of one scenario should be that scenario")
	}
	c := Compose(pin, MustScenario("inherent:ber=1e-5"))
	if got, want := c.Spec(), "compose(pin,inherent:ber=1e-5)"; got != want {
		t.Fatalf("Compose spec = %q, want %q", got, want)
	}
	// The combinator's spec must round-trip through the grammar.
	rebuilt, err := NewScenario(c.Spec())
	if err != nil {
		t.Fatalf("rebuilding %q: %v", c.Spec(), err)
	}
	if rebuilt.Spec() != c.Spec() {
		t.Fatalf("round-trip spec %q != %q", rebuilt.Spec(), c.Spec())
	}
}

// TestListFaultsTextMentionsEverything mirrors the schemes listing test:
// every registered scenario and every documented option key must appear.
func TestListFaultsTextMentionsEverything(t *testing.T) {
	text := ListFaultsText()
	if !strings.Contains(text, registry.Compose+"(") {
		t.Fatal("ListFaultsText missing the compose combinator")
	}
	for _, e := range scenarios.All() {
		if !strings.Contains(text, e.ID) {
			t.Fatalf("ListFaultsText missing scenario %q", e.ID)
		}
		for _, o := range e.Options {
			if !strings.Contains(text, o.Key) {
				t.Fatalf("ListFaultsText missing option %q of %q", o.Key, e.ID)
			}
		}
	}
}
