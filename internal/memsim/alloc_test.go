package memsim_test

import (
	"testing"

	"pair/internal/ecc"
	"pair/internal/memsim"
	"pair/internal/trace"
)

// TestRunAllocatesNothingPerRequest doubles the trace length and
// requires the allocation count of one Run to stay flat: ops are
// recycled through the simulator's free list, so only slice growth,
// logarithmic in the trace length, may remain. The cost model and the
// patrol scrub reach every op site (RMW write legs, companion writes,
// re-reads, scrub reads) on each builtin profile.
func TestRunAllocatesNothingPerRequest(t *testing.T) {
	cost := ecc.AccessCost{
		ExtraReadsPerMaskedWrite: 1, ExtraWritesPerWrite: 0.5,
		ExtraReadsPerWrite: 0.25, DetectionRereadRate: 0.25,
	}
	allocs := func(cfg memsim.Config, requests int) float64 {
		wl := trace.Generate(trace.Params{
			Name: "mix", Requests: requests, Lines: 1 << 18, Pattern: trace.Random,
			ReadFrac: 0.6, MaskedFrac: 0.3, MeanGap: 2, Window: 16, Seed: 21,
		})
		return testing.AllocsPerRun(3, func() { memsim.MustRun(cfg, wl) })
	}
	for _, id := range memsim.ProfileIDs() {
		cfg := memsim.MustProfile(id).Config()
		cfg.Cost = cost
		cfg.ScrubPeriod = 500
		short, long := allocs(cfg, 4000), allocs(cfg, 8000)
		if long-short > 16 {
			t.Errorf("%s: %.0f allocations at 4000 requests, %.0f at 8000", id, short, long)
		}
	}
}
