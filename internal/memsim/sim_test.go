package memsim_test

import (
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/memsim"
	"pair/internal/trace"
)

func seqReads(n int) trace.Workload {
	return trace.Generate(trace.Params{
		Name: "seq", Requests: n, Lines: 1 << 18, Pattern: trace.Sequential,
		ReadFrac: 1.0, MeanGap: 2, Window: 16, Seed: 1,
	})
}

func TestTimingHelpers(t *testing.T) {
	tm := memsim.DDR4_2400()
	ddr4 := memsim.MustProfile("ddr4-2400")
	if ddr4.BurstCycles(0) != 4 {
		t.Fatalf("BL8 = %d cycles", ddr4.BurstCycles(0))
	}
	if ddr4.BurstCycles(1) != 5 {
		t.Fatalf("BL9 = %d cycles (9 beats round up)", ddr4.BurstCycles(1))
	}
	ddr5 := memsim.MustProfile("ddr5-4800")
	if ddr5.BurstCycles(0) != 8 {
		t.Fatalf("BL16 = %d cycles", ddr5.BurstCycles(0))
	}
	if tm.NSToCycles(0) != 0 {
		t.Fatal("0ns != 0 cycles")
	}
	if tm.NSToCycles(0.9) != 2 {
		t.Fatalf("0.9ns = %d cycles, want 2 (round up)", tm.NSToCycles(0.9))
	}
}

func TestRunBasicInvariants(t *testing.T) {
	res := Run(memsim.DefaultConfig(), seqReads(2000))
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if res.Reads != 2000 || res.Writes != 0 {
		t.Fatalf("counts wrong: %+v", res)
	}
	if res.RowHits+res.RowMisses != 2000 {
		t.Fatalf("row accounting wrong: %+v", res)
	}
	// Sequential reads must be row-hit dominated.
	if float64(res.RowHits)/2000 < 0.8 {
		t.Fatalf("sequential row hit rate %v too low", float64(res.RowHits)/2000)
	}
	if res.AvgReadLatencyNS(memsim.DDR4_2400()) < 10 {
		t.Fatalf("read latency %vns implausibly low", res.AvgReadLatencyNS(memsim.DDR4_2400()))
	}
	if res.ExecSeconds(memsim.DDR4_2400()) <= 0 {
		t.Fatal("non-positive execution time")
	}
}

func TestRunDeterministic(t *testing.T) {
	wl := trace.SPECLike(3000)[3] // gcc-like with writes
	a := Run(memsim.DefaultConfig(), wl)
	b := Run(memsim.DefaultConfig(), wl)
	// Compare everything except the histogram pointer; its percentiles
	// must also agree.
	ah, bh := a.ReadLatency, b.ReadLatency
	a.ReadLatency, b.ReadLatency = nil, nil
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
	if ah.Percentile(99) != bh.Percentile(99) || ah.Count() != bh.Count() {
		t.Fatal("latency distribution not deterministic")
	}
}

func TestRandomSlowerThanSequential(t *testing.T) {
	seq := Run(memsim.DefaultConfig(), trace.Generate(trace.Params{
		Name: "s", Requests: 4000, Lines: 1 << 18, Pattern: trace.Sequential,
		ReadFrac: 1, MeanGap: 2, Window: 16, Seed: 2,
	}))
	rnd := Run(memsim.DefaultConfig(), trace.Generate(trace.Params{
		Name: "r", Requests: 4000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 1, MeanGap: 2, Window: 16, Seed: 2,
	}))
	if rnd.Cycles <= seq.Cycles {
		t.Fatalf("random (%d) not slower than sequential (%d)", rnd.Cycles, seq.Cycles)
	}
	if rnd.RowMisses <= seq.RowMisses {
		t.Fatal("random should miss rows more")
	}
}

func TestBurstExtensionCostsBandwidth(t *testing.T) {
	// DUO-style +1 beat must slow a bandwidth-bound stream measurably but
	// mildly (~10% upper bound at 12.5% more bus occupancy).
	wl := seqReads(6000)
	base := Run(memsim.DefaultConfig(), wl)
	cfg := memsim.DefaultConfig()
	cfg.Cost = ecc.AccessCost{ExtraReadBeats: 1, ExtraWriteBeats: 1}
	ext := Run(cfg, wl)
	slowdown := float64(ext.Cycles) / float64(base.Cycles)
	if slowdown <= 1.0 {
		t.Fatalf("burst extension did not slow down (%v)", slowdown)
	}
	if slowdown > 1.30 {
		t.Fatalf("burst extension slowdown %v implausibly large", slowdown)
	}
}

func TestExtraWritesCostThroughput(t *testing.T) {
	// XED-style companion writes on a write-heavy stream.
	wl := trace.Generate(trace.Params{
		Name: "w", Requests: 6000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 0.5, MaskedFrac: 0, MeanGap: 2, Window: 16, Seed: 3,
	})
	base := Run(memsim.DefaultConfig(), wl)
	cfg := memsim.DefaultConfig()
	cfg.Cost = ecc.AccessCost{ExtraWritesPerWrite: 1.0}
	xed := Run(cfg, wl)
	if xed.ExtraWrites == 0 {
		t.Fatal("no companion writes issued")
	}
	slowdown := float64(xed.Cycles) / float64(base.Cycles)
	if slowdown < 1.05 {
		t.Fatalf("companion writes slowdown only %v", slowdown)
	}
}

func TestMaskedWriteRMW(t *testing.T) {
	wl := trace.Generate(trace.Params{
		Name: "m", Requests: 4000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 0.4, MaskedFrac: 1.0, MeanGap: 2, Window: 8, Seed: 4,
	})
	base := Run(memsim.DefaultConfig(), wl)
	cfg := memsim.DefaultConfig()
	cfg.Cost = ecc.AccessCost{ExtraReadsPerMaskedWrite: 1.0}
	rmw := Run(cfg, wl)
	if rmw.ExtraReads == 0 {
		t.Fatal("no RMW reads issued")
	}
	if rmw.Cycles <= base.Cycles {
		t.Fatal("RMW did not slow down")
	}
	s := wl.Stats()
	if rmw.ExtraReads != uint64(s.MaskedWrites) {
		t.Fatalf("RMW reads %d != masked writes %d", rmw.ExtraReads, s.MaskedWrites)
	}
}

func TestDecodeLatencyAddsToReads(t *testing.T) {
	// Measure on an unloaded, serialized stream (window 1, long gaps):
	// there the decode adder appears verbatim in the idle read latency.
	// On saturated streams it instead surfaces as later window releases,
	// which TestSchemeCostsOrdering covers.
	wl := trace.Generate(trace.Params{
		Name: "idle", Requests: 1500, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 1, MeanGap: 200, Window: 1, Seed: 8,
	})
	base := Run(memsim.DefaultConfig(), wl)
	cfg := memsim.DefaultConfig()
	cfg.Cost = ecc.AccessCost{DecodeLatencyNS: 10}
	dec := Run(cfg, wl)
	diff := dec.AvgReadLatencyNS(cfg.Profile.Timing) - base.AvgReadLatencyNS(cfg.Profile.Timing)
	if diff < 8 || diff > 16 {
		t.Fatalf("latency delta %vns, want ~10ns", diff)
	}
	if dec.Cycles <= base.Cycles {
		t.Fatal("decode latency not visible in execution time of a serialized stream")
	}
}

func TestDetectionRereads(t *testing.T) {
	wl := seqReads(4000)
	cfg := memsim.DefaultConfig()
	cfg.Cost = ecc.AccessCost{DetectionRereadRate: 0.5}
	res := Run(cfg, wl)
	frac := float64(res.ExtraReads) / 4000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("re-read rate %v, want ~0.5", frac)
	}
}

func TestRefreshHappens(t *testing.T) {
	// A long, slow trace must cross several tREFI boundaries.
	wl := trace.Generate(trace.Params{
		Name: "slow", Requests: 3000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 1, MeanGap: 40, Window: 2, Seed: 5,
	})
	res := Run(memsim.DefaultConfig(), wl)
	if res.Refreshes == 0 {
		t.Fatal("no refreshes over a long run")
	}
}

func TestMultiRank(t *testing.T) {
	cfg := memsim.DefaultConfig()
	cfg.Ranks = 2
	res := Run(cfg, seqReads(2000))
	if res.Reads != 2000 {
		t.Fatal("multi-rank run lost requests")
	}
}

func TestWindowLimitsMLP(t *testing.T) {
	// The same random-read trace with window 1 must take much longer than
	// with window 16 (no overlap of row misses).
	base := trace.Params{
		Name: "w", Requests: 3000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 1, MeanGap: 1, Seed: 6,
	}
	p1 := base
	p1.Window = 1
	p16 := base
	p16.Window = 16
	r1 := Run(memsim.DefaultConfig(), trace.Generate(p1))
	r16 := Run(memsim.DefaultConfig(), trace.Generate(p16))
	if float64(r1.Cycles)/float64(r16.Cycles) < 1.5 {
		t.Fatalf("window-1 (%d) not much slower than window-16 (%d)", r1.Cycles, r16.Cycles)
	}
}

func TestSchemeCostsOrdering(t *testing.T) {
	// End-to-end sanity on a write-heavy workload: XED-like costs must be
	// slowest; DUO-like and PAIR-like close to baseline.
	wl := trace.Generate(trace.Params{
		Name: "wh", Requests: 8000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 0.55, MaskedFrac: 0.3, MeanGap: 2, Window: 12, Seed: 7,
	})
	run := func(c ecc.AccessCost) uint64 {
		cfg := memsim.DefaultConfig()
		cfg.Cost = c
		return Run(cfg, wl).Cycles
	}
	baseline := run(ecc.AccessCost{})
	pairC := run(ecc.AccessCost{DecodeLatencyNS: 2, ExtraReadsPerMaskedWrite: 1})
	duoC := run(ecc.AccessCost{ExtraReadBeats: 1, ExtraWriteBeats: 1, DecodeLatencyNS: 4, ExtraReadsPerMaskedWrite: 1})
	xedC := run(ecc.AccessCost{DecodeLatencyNS: 1, ExtraWritesPerWrite: 1, ExtraReadsPerMaskedWrite: 1})
	if !(baseline <= pairC && pairC <= xedC) {
		t.Fatalf("ordering broken: base=%d pair=%d xed=%d", baseline, pairC, xedC)
	}
	if !(pairC <= duoC && duoC <= xedC) {
		t.Fatalf("ordering broken: pair=%d duo=%d xed=%d", pairC, duoC, xedC)
	}
	// XED must cost more than PAIR by a visible margin on this mix.
	if float64(xedC)/float64(pairC) < 1.05 {
		t.Fatalf("XED/PAIR ratio %v too small", float64(xedC)/float64(pairC))
	}
	_ = dram.DDR4x16()
}
