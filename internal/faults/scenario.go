package faults

// This file is the scenario registry: field-realistic fault scenarios as
// self-registering entries in the registry type and spec grammar of
// internal/registry. A scenario is a seeded per-trial corruption of one
// rank access — from inherent weak-cell noise through retention-failure
// clusters, row-hammer disturbance and variable-retention-time flicker up
// to whole-chip kills — addressable by a spec string (see
// scenariospec.go) so the -faults flag, the F13 experiment table and the
// differential strength/weakness suite all draw from one source of truth.

import (
	"math/rand"
	"strings"

	"pair/internal/dram"
	"pair/internal/registry"
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
	Options []registry.OptionDoc
	// New builds the injector from the spec's validated options.
	New func(opts map[string]string) (InjectFunc, error)
}

var scenarios = registry.New[*ScenarioEntry]("faults", "scenario")

// register adds a scenario to the registry (see registry.Add for the ID
// rules); it runs from init functions.
func register(e ScenarioEntry) { scenarios.Add(e.ID, &e) }

// ScenarioIDs returns every registered scenario ID in registration order.
func ScenarioIDs() []string { return scenarios.IDs() }

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
	parts := make([]string, len(scs))
	for i, sc := range scs {
		parts[i] = sc.Spec()
	}
	return composed(registry.Compose+"("+strings.Join(parts, ",")+")", scs)
}

// composed is the scenario under spec that injects each of scs in order.
func composed(spec string, scs []Scenario) Scenario {
	return &scenarioFunc{spec: spec, inject: func(rng *rand.Rand, chips []dram.Chip) int {
		n := 0
		for _, sc := range scs {
			n += sc.Inject(rng, chips)
		}
		return n
	}}
}
