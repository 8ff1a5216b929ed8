// Performance example: run one write-heavy workload through the DDR4
// timing simulator under each scheme's cost model and print the
// mechanism-level accounting — where XED's inline parity writes and the
// read-modify-write traffic go. The full ten-workload figure is
// `pairsim -exp f4`.
//
//	go run ./examples/performance
package main

import (
	"fmt"

	"pair"
	"pair/internal/memsim"
	"pair/internal/trace"
)

func main() {
	// A gcc-like mix: hot working set, 20% writes, a third of them masked.
	wl := trace.Generate(trace.Params{
		Name:        "gcc-like",
		Requests:    30000,
		Lines:       1 << 20,
		Pattern:     trace.Hotspot,
		ReadFrac:    0.80,
		MaskedFrac:  0.35,
		MeanGap:     6,
		Window:      6,
		HotFraction: 0.6,
		Seed:        104,
	})
	s := wl.Stats()
	fmt.Printf("workload %s: %d reads, %d writes (%d masked), MLP window %d\n\n",
		wl.Name, s.Reads, s.Writes+s.MaskedWrites, s.MaskedWrites, wl.Window)
	fmt.Printf("%-10s %12s %9s %11s %11s %12s %10s %9s\n",
		"scheme", "cycles", "norm", "extra rds", "extra wrs", "read lat ns", "p99 ns", "row hit%")

	// The comparison set as registry specs — swap in any variant the
	// grammar can express (e.g. "pair@ddr5x16", "pair:spare=3.7").
	var baseline uint64
	for _, spec := range []string{"none", "iecc", "xed", "duo", "pair"} {
		scheme, err := pair.SchemeBySpec(spec)
		if err != nil {
			panic(err)
		}
		cfg := memsim.DefaultConfig()
		cfg.Cost = scheme.Cost()
		res := memsim.MustRun(cfg, wl)
		if scheme.Name() == "none" {
			baseline = res.Cycles
		}
		norm := float64(baseline) / float64(res.Cycles)
		hit := float64(res.RowHits) / float64(res.RowHits+res.RowMisses) * 100
		fmt.Printf("%-10s %12d %9.3f %11d %11d %12.1f %10.1f %8.1f%%\n",
			scheme.Name(), res.Cycles, norm, res.ExtraReads, res.ExtraWrites,
			res.AvgReadLatencyNS(cfg.Profile.Timing), res.P99ReadLatencyNS(cfg.Profile.Timing), hit)
	}

	fmt.Println("\nXED pays one companion parity write per write plus RMW reads for")
	fmt.Println("masked writes; DUO stretches every burst by one beat; PAIR changes")
	fmt.Println("nothing on the bus — its cost is the in-die decode latency.")
}
