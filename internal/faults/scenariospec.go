package faults

import (
	"fmt"

	"pair/internal/registry"
)

// Fault-scenario specs use the grammar of internal/registry, with
// composition:
//
//	name[:key=val,...]
//	compose(spec,spec,...)
//
// where name is a registered scenario ID and the key=val options are
// interpreted by the scenario's constructor hook. compose nests freely;
// a scenario takes no @org. Examples:
//
//	retention:pop=1e-6,cluster=2.5
//	rowhammer:radius=1,rate=0.3
//	compose(pin,inherent:ber=1e-5)
//
// A built scenario's Spec is the canonical form of its spec, which
// campaign labels embed.

// NewScenario parses a spec string and builds the scenario it describes.
// Errors enumerate the valid scenario IDs or option keys, all generated
// from the registry.
func NewScenario(spec string) (Scenario, error) {
	s, err := registry.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return build(s)
}

// build resolves a parsed spec against the scenario registry and
// constructs the scenario; a composition builds its parts in order.
func build(s registry.Spec) (Scenario, error) {
	if s.ID == registry.Compose {
		parts := make([]Scenario, len(s.Parts))
		for i, p := range s.Parts {
			var err error
			if parts[i], err = build(p); err != nil {
				return nil, err
			}
		}
		return composed(s.String(), parts), nil
	}
	if s.Org != "" {
		return nil, fmt.Errorf("faults: scenario spec %q names organization %q; scenarios take none", s.String(), s.Org)
	}
	e, err := scenarios.Lookup(s.ID)
	if err != nil {
		return nil, err
	}
	if err := scenarios.CheckOptions(s.ID, e.Options, s.Options); err != nil {
		return nil, err
	}
	fn, err := e.New(s.Options)
	if err != nil {
		return nil, fmt.Errorf("faults: building scenario %q: %w", s.String(), err)
	}
	return &scenarioFunc{spec: s.String(), inject: fn}, nil
}

// MustScenario is NewScenario, panicking on error; for specs known at
// compile time.
func MustScenario(spec string) Scenario {
	sc, err := NewScenario(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// BuildScenarios constructs every spec in the list, stopping at the
// first error.
func BuildScenarios(specs []string) ([]Scenario, error) {
	out := make([]Scenario, 0, len(specs))
	for _, spec := range specs {
		sc, err := NewScenario(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ParseFaultSpecList splits a comma/whitespace-separated spec list by
// registry.SplitList's rules and builds each entry.
func ParseFaultSpecList(list string) ([]Scenario, error) {
	specs, err := registry.SplitList(list)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return BuildScenarios(specs)
}
