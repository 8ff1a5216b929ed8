package faults

import (
	"testing"

	"pair/internal/registry"
)

// FuzzParseFaultSpec is the build side of the fault-spec grammar: no
// input may panic NewScenario, and a built scenario's Spec is the
// canonical form of its spec (registry.Spec.String) and rebuilds to
// itself, since campaign labels embed it. Most random IDs are
// unregistered, so most inputs are rejected. The grammar's own
// parse-or-reject property is registry.FuzzParse.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"pin",
		"pinburst:b=4",
		"retention:pop=1e-6,cluster=2.5",
		"rowhammer:radius=1,rate=0.3",
		"vrt:flicker=0.2",
		"chipkill:chips=2",
		"inherent:ber=1e-4",
		"compose(pin,inherent:ber=1e-5)",
		"compose(compose(pin,lane),vrt)",
		"compose(retention:pop=1e-6,cluster=2.5,pin)",
		"compose",
		"compose()",
		"a:k=v:w",
		"a,b",
		"x:=",
		"((((",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := NewScenario(spec)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		parsed, err := registry.Parse(spec)
		if err != nil {
			t.Fatalf("NewScenario built %q, which does not parse: %v", spec, err)
		}
		canon := sc.Spec()
		if canon != parsed.String() {
			t.Fatalf("built scenario spec %q != canonical %q", canon, parsed.String())
		}
		again, err := NewScenario(canon)
		if err != nil {
			t.Fatalf("canonical %q of built spec %q fails to rebuild: %v", canon, spec, err)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("build∘canonical not identity: %q rebuilt as %q", canon, got)
		}
	})
}
