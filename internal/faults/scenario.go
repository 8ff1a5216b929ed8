package faults

// This file is the scenario registry: field-realistic fault scenarios as
// self-registering entries, mirroring the scheme registry in
// internal/schemes. A scenario is a seeded per-trial corruption of one
// rank access — from inherent weak-cell noise through retention-failure
// clusters, row-hammer disturbance and variable-retention-time flicker up
// to whole-chip kills — addressable by a spec string (see
// scenariospec.go) so the -faults flag, the F13 experiment table and the
// differential strength/weakness suite all draw from one source of truth.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pair/internal/dram"
)

// Scenario is one registered fault scenario instance. Inject corrupts a
// rank access (one dram.Chip per stored chip image, data chips first) in
// place and returns the number of bit positions it XORed. It XORs in a
// pattern drawn from the given RNG alone and never reads the image, so
// the pattern and every draw are the same whatever data the access holds:
// the premise that lets the reliability engine run every trial on the
// all-zero codeword. Scenarios tolerate any absent region (the faultmap
// CLI renders Data-only chips). An instance holds no per-trial state, so
// one Scenario value is safe for concurrent use from campaign shard
// workers, and equal (spec, RNG stream) always produce the same
// corruption — the determinism contract the campaign engine extends down
// to the fault layer.
type Scenario interface {
	// Spec returns the canonical spec string that rebuilds this scenario
	// (parse∘canonical = identity); campaign labels embed it.
	Spec() string
	// Inject applies one trial's corruption and returns the flip count.
	Inject(rng *rand.Rand, chips []dram.Chip) int
}

// InjectFunc is the corruption hook a scenario constructor returns, under
// Scenario.Inject's contract: it XORs in a pattern drawn from the RNG
// alone and never reads the chips. A fault model whose pattern depends on
// the stored data, such as retention errors that only discharge charged
// cells, would break the all-zero-codeword trials; the reliability
// engine's TestZeroCodewordEquivalence fails on one.
type InjectFunc func(rng *rand.Rand, chips []dram.Chip) int

// ScenarioEntry is one registered scenario: identity, documentation and
// the constructor hook that validates options and builds the injector.
type ScenarioEntry struct {
	// ID is the canonical scenario identifier ("retention", "pin", ...).
	ID string
	// Description is a one-line summary for listings.
	Description string
	// Options documents the option keys the hook accepts; specs using
	// any other key are rejected before the hook runs.
	Options []OptionDoc
	// New builds the injector from the spec's validated options.
	New func(opts map[string]string) (InjectFunc, error)
}

// OptionDoc documents one option key a scenario's constructor accepts.
type OptionDoc struct {
	Key string
	Doc string
}

// optionKeys returns the documented option keys.
func (e *ScenarioEntry) optionKeys() []string {
	keys := make([]string, len(e.Options))
	for i, o := range e.Options {
		keys[i] = o.Key
	}
	return keys
}

var (
	scenarioRegistry = map[string]*ScenarioEntry{}
	scenarioOrder    []string // registration (presentation) order
)

// RegisterScenario adds a scenario to the registry. It panics on a
// duplicate or malformed entry — registration happens in init functions,
// where a panic is a build-time error. IDs must stay inside the spec
// grammar's name alphabet (lowercase letters, digits, '-') so every
// registered scenario remains addressable by spec.
func RegisterScenario(e ScenarioEntry) {
	if e.ID == "" || e.New == nil {
		panic("faults: scenario entry needs an ID and a constructor")
	}
	if e.ID == composeID {
		panic(fmt.Sprintf("faults: scenario ID %q is reserved by the spec grammar", composeID))
	}
	for _, r := range e.ID {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			panic(fmt.Sprintf("faults: scenario ID %q outside the spec name alphabet [a-z0-9-]", e.ID))
		}
	}
	if _, dup := scenarioRegistry[e.ID]; dup {
		panic(fmt.Sprintf("faults: duplicate scenario %q", e.ID))
	}
	cp := e
	scenarioRegistry[e.ID] = &cp
	scenarioOrder = append(scenarioOrder, e.ID)
}

// LookupScenario returns the entry registered under id.
func LookupScenario(id string) (*ScenarioEntry, bool) {
	e, ok := scenarioRegistry[id]
	return e, ok
}

// ScenarioIDs returns every registered scenario ID in registration order.
func ScenarioIDs() []string {
	return append([]string(nil), scenarioOrder...)
}

// AllScenarios returns every registered entry in registration order.
func AllScenarios() []*ScenarioEntry {
	out := make([]*ScenarioEntry, len(scenarioOrder))
	for i, id := range scenarioOrder {
		out[i] = scenarioRegistry[id]
	}
	return out
}

// unknownScenarioError builds the error for an unregistered scenario ID;
// the valid-ID list is generated from the registry so it cannot drift.
func unknownScenarioError(id string) error {
	return fmt.Errorf("faults: unknown scenario %q (valid: %s)", id, strings.Join(scenarioOrder, "|"))
}

// validateScenarioOptions checks that every option key of a spec is
// documented by the entry.
func validateScenarioOptions(e *ScenarioEntry, opts map[string]string) error {
	if len(opts) == 0 {
		return nil
	}
	allowed := map[string]bool{}
	for _, k := range e.optionKeys() {
		allowed[k] = true
	}
	var bad []string
	for k := range opts {
		if !allowed[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	keys := e.optionKeys()
	if len(keys) == 0 {
		return fmt.Errorf("faults: scenario %q takes no options, got %s", e.ID, strings.Join(bad, ","))
	}
	return fmt.Errorf("faults: scenario %q does not accept option(s) %s (valid: %s)",
		e.ID, strings.Join(bad, ","), strings.Join(keys, "|"))
}

// scenarioFunc is the Scenario implementation every registry build
// returns: a canonical spec string plus the constructor's injector.
type scenarioFunc struct {
	spec   string
	inject InjectFunc
}

func (s *scenarioFunc) Spec() string { return s.spec }

func (s *scenarioFunc) Inject(rng *rand.Rand, chips []dram.Chip) int {
	return s.inject(rng, chips)
}

// Compose combines scenarios into one that injects each in order per
// trial — the programmatic form of the compose(a,b,...) spec. A single
// scenario is returned unchanged; an empty list composes to nil (no
// ambient corruption).
func Compose(scs ...Scenario) Scenario {
	switch len(scs) {
	case 0:
		return nil
	case 1:
		return scs[0]
	}
	spec := composeID + "("
	for i, sc := range scs {
		if i > 0 {
			spec += ","
		}
		spec += sc.Spec()
	}
	spec += ")"
	return &scenarioFunc{spec: spec, inject: func(rng *rand.Rand, chips []dram.Chip) int {
		n := 0
		for _, sc := range scs {
			n += sc.Inject(rng, chips)
		}
		return n
	}}
}
