package memsim_test

import (
	"testing"

	"pair/internal/dram"
	"pair/internal/memsim"
	"pair/internal/trace"
)

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := memsim.DefaultConfig()
	p := *cfg.Profile
	p.Org = dram.Organization{} // invalid: zero geometry
	cfg.Profile = &p
	if _, err := memsim.Run(cfg, seqReads(10)); err == nil {
		t.Fatal("Run accepted an invalid organization")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic on an invalid organization")
		}
	}()
	memsim.MustRun(cfg, seqReads(10))
}

func TestRunRejectsNilProfile(t *testing.T) {
	cfg := memsim.DefaultConfig()
	cfg.Profile = nil
	if _, err := memsim.Run(cfg, seqReads(10)); err == nil {
		t.Fatal("Run accepted a nil Profile")
	}
}

func TestRunRanksValidation(t *testing.T) {
	cfg := memsim.DefaultConfig()
	cfg.Ranks = 0
	res, err := memsim.Run(cfg, seqReads(100))
	if err != nil || res.Reads != 100 {
		t.Fatalf("ranks=0 should default to 1: res=%+v err=%v", res, err)
	}
	cfg.Ranks = -3
	if _, err := memsim.Run(cfg, seqReads(100)); err == nil {
		t.Fatal("Run accepted a negative rank count")
	}
}

// TestEventStreamConsistent cross-checks the observer stream against the
// Result aggregates: time-ordered events, matching command counts, and
// a CAS count that explains every access the run reports.
func TestEventStreamConsistent(t *testing.T) {
	wl := trace.SPECLike(3000)[3] // gcc-like with writes
	var got memsim.CmdCounts
	var lastAt uint64
	cfg := memsim.DefaultConfig()
	cfg.Observer = memsim.ObserverFunc(func(c memsim.Command) {
		if c.At < lastAt {
			t.Fatalf("event stream not time-ordered: %s after @%d", c, lastAt)
		}
		lastAt = c.At
		switch c.Kind {
		case memsim.CmdACT:
			got.ACT++
		case memsim.CmdPRE:
			got.PRE++
		case memsim.CmdRD:
			got.RD++
		case memsim.CmdWR:
			got.WR++
		case memsim.CmdREF:
			got.REF++
		}
	})
	res := Run(cfg, wl)
	if got != res.Cmds {
		t.Fatalf("observer counts %+v != Result.Cmds %+v", got, res.Cmds)
	}
	if got.REF != res.Refreshes {
		t.Fatalf("REF events %d != Refreshes %d", got.REF, res.Refreshes)
	}
	if got.ACT != res.RowMisses {
		t.Fatalf("ACTs %d != row misses %d", got.ACT, res.RowMisses)
	}
	cas := got.RD + got.WR
	want := res.Reads + res.Writes + res.ExtraReads + res.ExtraWrites + res.ScrubReads
	if cas != want {
		t.Fatalf("CAS commands %d != accesses %d", cas, want)
	}
	if res.BusUtilization() <= 0 || res.BusUtilization() > 1 {
		t.Fatalf("bus utilization %v out of range", res.BusUtilization())
	}
	if res.RowHitRate() <= 0 || res.RowHitRate() >= 1 {
		t.Fatalf("row hit rate %v out of range", res.RowHitRate())
	}
}

// TestTRRDEnforcedBetweenACTs drives a timing grade whose tRCD is small
// enough that, without tRRD enforcement, back-to-back activates to
// different banks of a rank would pack closer than tRRD_S/tRRD_L.
func TestTRRDEnforcedBetweenACTs(t *testing.T) {
	tm := memsim.DDR4_2400()
	tm.TRCD = 1
	tm.TRP = 2
	tm.TRAS = 4
	tm.TRC = 8
	tm.TRRDS = 8
	tm.TRRDL = 12
	cfg := memsim.DefaultConfig()
	p := *cfg.Profile
	p.Timing = tm
	cfg.Profile = &p

	type act struct {
		at          uint64
		rank, group int
	}
	var acts []act
	cfg.Observer = memsim.ObserverFunc(func(c memsim.Command) {
		if c.Kind == memsim.CmdACT {
			acts = append(acts, act{c.At, c.Addr.Rank, c.Addr.Group})
		}
	})
	memsim.MustRun(cfg, trace.Generate(trace.Params{
		Name: "rrd", Requests: 3000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 1, MeanGap: 1, Window: 16, Seed: 11,
	}))
	if len(acts) < 100 {
		t.Fatalf("only %d ACTs observed", len(acts))
	}
	lastRank := map[int]uint64{}
	lastGrp := map[[2]int]uint64{}
	for _, a := range acts {
		if prev, ok := lastRank[a.rank]; ok && a.at < prev+uint64(tm.TRRDS) {
			t.Fatalf("tRRD_S violated: ACT@%d only %d after ACT@%d", a.at, a.at-prev, prev)
		}
		if prev, ok := lastGrp[[2]int{a.rank, a.group}]; ok && a.at < prev+uint64(tm.TRRDL) {
			t.Fatalf("tRRD_L violated: ACT@%d only %d after ACT@%d", a.at, a.at-prev, prev)
		}
		lastRank[a.rank] = a.at
		lastGrp[[2]int{a.rank, a.group}] = a.at
	}
}

// TestScrubFiresDuringIdleGaps covers the idle-advance fix: a long
// request gap must not starve the patrol scrubber — scrub reads fire at
// their scheduled period throughout the gap rather than bunching up when
// the next request finally arrives.
func TestScrubFiresDuringIdleGaps(t *testing.T) {
	const period = 1000
	const gap = 200000
	reqs := []trace.Request{
		{Op: trace.Read, Line: 1, Gap: 0},
		{Op: trace.Read, Line: 2, Gap: gap},
	}
	cfg := memsim.DefaultConfig()
	cfg.ScrubPeriod = period
	var scrubRDs []uint64
	cfg.Observer = memsim.ObserverFunc(func(c memsim.Command) {
		if c.Kind == memsim.CmdRD {
			scrubRDs = append(scrubRDs, c.At)
		}
	})
	res := Run(cfg, trace.Workload{Name: "gap", Window: 2, Reqs: reqs})
	want := uint64(gap / period)
	if res.ScrubReads < want-2 || res.ScrubReads > want+2 {
		t.Fatalf("scrub reads %d, want ~%d over the gap", res.ScrubReads, want)
	}
	// The scrubs must be spread over the gap: every consecutive pair of
	// scrub reads inside the gap is ~one period apart, never compressed
	// into a burst at the end.
	var inGap []uint64
	for _, at := range scrubRDs {
		if at > 2*period && at < gap-2*period {
			inGap = append(inGap, at)
		}
	}
	if len(inGap) < int(want)/2 {
		t.Fatalf("only %d scrub reads landed inside the idle gap", len(inGap))
	}
	for i := 1; i < len(inGap); i++ {
		d := inGap[i] - inGap[i-1]
		if d < period/2 || d > period*2 {
			t.Fatalf("scrub spacing %d at #%d, want ~%d (compressed catch-up?)", d, i, uint64(period))
		}
	}
}
