package memsim_test

import (
	"testing"

	"pair/internal/memsim"
	"pair/internal/trace"
)

// isolatedRead builds a trace whose accesses are so far apart that every
// request sees an idle controller; latencies then reflect pure protocol
// timing.
func isolatedTrace(reqs []trace.Request) trace.Workload {
	return trace.Workload{Name: "isolated", Window: 1, Reqs: reqs}
}

func TestIsolatedRowMissLatency(t *testing.T) {
	// Random far-apart rows: every read is ACT + CAS: latency ~=
	// tRCD + CL + burst cycles.
	tm := memsim.DDR4_2400()
	reqs := make([]trace.Request, 200)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: uint64(i) * 1_000_003, Gap: 2000}
	}
	res := Run(memsim.DefaultConfig(), isolatedTrace(reqs))
	wantCycles := float64(tm.TRCD+tm.CL) + float64(memsim.MustProfile("ddr4-2400").BurstCycles(0))
	got := float64(res.ReadLatencySum) / float64(res.Reads)
	// Allow refresh interference and the occasional precharge.
	if got < wantCycles || got > wantCycles+float64(tm.TRP)+20 {
		t.Fatalf("isolated miss latency %.1f cycles, want ~%.0f", got, wantCycles)
	}
}

func TestIsolatedRowHitLatency(t *testing.T) {
	// Same row repeatedly: after the first access everything is a row
	// hit: latency ~= CL + burst.
	tm := memsim.DDR4_2400()
	reqs := make([]trace.Request, 200)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: 5, Gap: 2000}
	}
	res := Run(memsim.DefaultConfig(), isolatedTrace(reqs))
	if res.RowHits < 190 {
		t.Fatalf("row hits %d of 200", res.RowHits)
	}
	wantHit := float64(tm.CL) + float64(memsim.MustProfile("ddr4-2400").BurstCycles(0))
	got := float64(res.ReadLatencySum) / float64(res.Reads)
	// One miss amortized over 200 plus refresh slack.
	if got < wantHit || got > wantHit+10 {
		t.Fatalf("hit latency %.1f cycles, want ~%.0f", got, wantHit)
	}
}

func TestSameBankConflictSlowerThanDifferentBanks(t *testing.T) {
	// Back-to-back accesses to two rows of the SAME bank must pay tRC
	// per swap; the same pattern spread over different banks must not.
	cfg := memsim.DefaultConfig()
	mk := func(stride uint64) trace.Workload {
		reqs := make([]trace.Request, 2000)
		for i := range reqs {
			// Alternate two lines: stride chosen to land in same bank,
			// different rows (capacity/banks apart) vs different banks.
			reqs[i] = trace.Request{Op: trace.Read, Line: uint64(i%2) * stride, Gap: 1}
		}
		return trace.Workload{Name: "conflict", Window: 4, Reqs: reqs}
	}
	// Same bank, different row: stride = one full bank's worth of lines.
	sameBank := Run(cfg, mk(1<<20))
	// Different banks: adjacent lines (XOR interleave spreads them).
	diffBank := Run(cfg, mk(1))
	if sameBank.Cycles <= diffBank.Cycles {
		t.Fatalf("bank conflict (%d) not slower than interleaved (%d)", sameBank.Cycles, diffBank.Cycles)
	}
	if float64(sameBank.Cycles)/float64(diffBank.Cycles) < 1.5 {
		t.Fatalf("bank-conflict penalty too small: %d vs %d", sameBank.Cycles, diffBank.Cycles)
	}
}

func TestWriteThenReadTurnaround(t *testing.T) {
	// A read right after a write to the same open row pays tWTR: its
	// latency must exceed the pure row-hit read latency.
	tm := memsim.DDR4_2400()
	var reqs []trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs,
			trace.Request{Op: trace.Write, Line: 7, Gap: 2000},
			trace.Request{Op: trace.Read, Line: 7, Gap: 0},
		)
	}
	res := Run(memsim.DefaultConfig(), trace.Workload{Name: "wtr", Window: 2, Reqs: reqs})
	hitLat := float64(tm.CL) + float64(memsim.MustProfile("ddr4-2400").BurstCycles(0))
	got := float64(res.ReadLatencySum) / float64(res.Reads)
	if got <= hitLat {
		t.Fatalf("post-write read latency %.1f <= pure hit %.1f: turnaround missing", got, hitLat)
	}
}

func TestThroughputBoundedByBus(t *testing.T) {
	// A fully saturated row-hit stream cannot beat one burst per
	// burst(+CCD) window: cycles >= reads * burst at the very least.
	reqs := make([]trace.Request, 5000)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: uint64(i), Gap: 0}
	}
	res := Run(memsim.DefaultConfig(), trace.Workload{Name: "sat", Window: 32, Reqs: reqs})
	burst := memsim.MustProfile("ddr4-2400").BurstCycles(0)
	if res.Cycles < uint64(len(reqs)*burst) {
		t.Fatalf("throughput exceeds bus capacity: %d cycles for %d bursts", res.Cycles, len(reqs))
	}
}
