// Reliability example: a miniature version of the paper's inherent-fault
// study. For each scheme it injects weak cells at a scaled-up bit-error
// rate into a million protected lines and tallies what comes back —
// corrected, flagged, or silently wrong. The full-scale sweeps live in
// `pairsim -exp f1` (semi-analytic, reaches 1e-8 BER); this example shows
// the raw Monte-Carlo mechanics end to end.
//
//	go run ./examples/reliability
package main

import (
	"fmt"
	"math/rand"

	"pair"
	"pair/internal/ecc"
)

func main() {
	const (
		trials = 200000
		ber    = 2e-4 // deliberately harsh so raw MC sees failures
	)
	fmt.Printf("injecting weak cells at BER %.0e into %d lines per scheme\n\n", ber, trials)
	fmt.Printf("%-10s %10s %10s %10s %10s\n", "scheme", "ok", "corrected", "detected", "silent")

	for _, scheme := range pair.AllSchemes() {
		rng := rand.New(rand.NewSource(7))
		line := make([]byte, scheme.Org().LineBytes())
		var counts [4]int
		for t := 0; t < trials; t++ {
			rng.Read(line)
			st := pair.Encode(scheme, line)
			if ecc.InjectInherent(rng, st, ber) == 0 {
				counts[pair.OutcomeOK]++
				continue
			}
			decoded, claim := pair.Decode(scheme, st)
			counts[pair.Classify(line, decoded, claim)]++
		}
		fmt.Printf("%-10s %10d %10d %10d %10d\n", scheme.Name(),
			counts[pair.OutcomeOK], counts[pair.OutcomeCE],
			counts[pair.OutcomeDUE], counts[pair.OutcomeSDC])
	}

	fmt.Println("\nReading the table: 'silent' (SDC) is the hazard the paper attacks —")
	fmt.Println("IECC miscorrects multi-bit patterns; PAIR's pin-aligned RS(20,16)")
	fmt.Println("corrects up to two symbols and flags nearly everything else.")
}
