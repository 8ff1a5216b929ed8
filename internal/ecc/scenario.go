package ecc

import (
	"math/rand"

	"pair/internal/faults"
)

// ScenarioInjector adapts a registered fault scenario to the injector
// signature the reliability campaigns use: the scenario corrupts the
// image's chips in place, each chip exposing its three storage regions
// (data, on-die redundancy, transferred redundancy) so interface faults
// and array faults reach exactly what their physics allows. The returned
// closure holds no mutable state, so one injector is safe for concurrent
// use across campaign shard workers — the same contract as every other
// campaign injector.
func ScenarioInjector(sc faults.Scenario) func(*rand.Rand, *Stored) {
	return func(rng *rand.Rand, st *Stored) { sc.Inject(rng, st.Chips) }
}
