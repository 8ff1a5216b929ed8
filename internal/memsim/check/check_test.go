package check_test

import (
	"strings"
	"testing"

	"pair/internal/dram"
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/trace"
)

// feed builds a checker over the ddr4-2400 profile and plays a
// synthetic stream.
func feed(cmds ...memsim.Command) *check.Checker {
	c := check.ForProfile(memsim.MustProfile("ddr4-2400"))
	for _, cmd := range cmds {
		c.Observe(cmd)
	}
	return c
}

func addr(rank, group, bank, row int) dram.Address {
	return dram.Address{Rank: rank, Group: group, Bank: bank, Row: row}
}

// act/rd/pre build minimal well-formed commands for synthetic streams.
func act(at uint64, rank, group, bank, fb int) memsim.Command {
	return memsim.Command{Kind: memsim.CmdACT, At: at, Addr: addr(rank, group, bank, 7), FlatBank: fb}
}

// burstCycles is the BL8 data-bus occupancy of the synthetic streams.
const burstCycles = 4

func rd(at uint64, rank, group, bank, fb int) memsim.Command {
	t := memsim.DDR4_2400()
	start := at + uint64(t.CL)
	return memsim.Command{Kind: memsim.CmdRD, At: at, Addr: addr(rank, group, bank, 7),
		FlatBank: fb, DataStart: start, DataEnd: start + burstCycles}
}

func wr(at uint64, rank, group, bank, fb int) memsim.Command {
	t := memsim.DDR4_2400()
	start := at + uint64(t.CWL)
	return memsim.Command{Kind: memsim.CmdWR, At: at, Addr: addr(rank, group, bank, 7),
		FlatBank: fb, DataStart: start, DataEnd: start + burstCycles}
}

func pre(at uint64, rank, group, bank, fb int) memsim.Command {
	return memsim.Command{Kind: memsim.CmdPRE, At: at, Addr: addr(rank, group, bank, 7), FlatBank: fb}
}

// wantRule asserts the checker recorded at least one violation of the
// named rule.
func wantRule(t *testing.T, c *check.Checker, rule string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %s violation; got %v", rule, c.Violations())
}

func TestCheckerCleanSyntheticStream(t *testing.T) {
	// ACT, a pair of reads tRCD later, PRE after tRAS, re-ACT after tRC.
	c := feed(
		act(100, 0, 0, 0, 0),
		rd(116, 0, 0, 0, 0),
		rd(124, 0, 0, 0, 0),
		pre(140, 0, 0, 0, 0),
		act(160, 0, 0, 0, 0),
		rd(180, 0, 0, 0, 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
	if c.Commands() != 6 {
		t.Fatalf("commands %d", c.Commands())
	}
}

func TestCheckerPerBankRules(t *testing.T) {
	// CAS 10 cycles after ACT: tRCD (16) violated.
	wantRule(t, feed(act(100, 0, 0, 0, 0), rd(110, 0, 0, 0, 0)), "tRCD")
	// PRE 20 cycles after ACT: tRAS (32) violated.
	wantRule(t, feed(act(100, 0, 0, 0, 0), pre(120, 0, 0, 0, 0)), "tRAS")
	// ACT 8 cycles after PRE: tRP (16) violated.
	wantRule(t, feed(act(100, 0, 0, 0, 0), pre(140, 0, 0, 0, 0), act(148, 0, 0, 0, 0)), "tRP")
	// Re-ACT 40 cycles after ACT: tRC (48); the hasty PRE breaks tRP too.
	wantRule(t, feed(act(100, 0, 0, 0, 0), pre(132, 0, 0, 0, 0), act(140, 0, 0, 0, 0)), "tRC")
	// CAS with no open row.
	wantRule(t, feed(rd(100, 0, 0, 0, 0)), "CAS-on-closed-bank")
	// ACT on an already-open row.
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(160, 0, 0, 0, 0)), "ACT-on-open-row")
	// PRE on a never-opened bank.
	wantRule(t, feed(pre(100, 0, 0, 0, 0)), "PRE-on-closed-bank")
	// PRE 4 cycles after a write burst ends: tWR (18).
	wantRule(t, feed(act(100, 0, 0, 0, 0), wr(116, 0, 0, 0, 0), pre(136, 0, 0, 0, 0)), "tWR")
	// PRE 4 cycles after a read CAS: tRTP (9).
	wantRule(t, feed(act(100, 0, 0, 0, 0), rd(132, 0, 0, 0, 0), pre(136, 0, 0, 0, 0)), "tRTP")
}

func TestCheckerRankAndChannelRules(t *testing.T) {
	// Two ACTs to different bank groups 2 cycles apart: tRRD_S (4).
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(102, 0, 1, 0, 4)), "tRRD_S")
	// Two ACTs to the same bank group 5 cycles apart: tRRD_L (6).
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(105, 0, 0, 1, 1)), "tRRD_L")
	// A 5th ACT inside the tFAW (26) window of the 1st.
	wantRule(t, feed(
		act(100, 0, 0, 0, 0), act(106, 0, 1, 0, 4), act(112, 0, 2, 0, 8),
		act(118, 0, 3, 0, 12), act(124, 0, 0, 1, 1),
	), "tFAW")
	// Same-group CASes 5 apart: tCCD_L (6) but not tCCD_S (4).
	c := feed(act(100, 0, 0, 0, 0), act(108, 0, 0, 1, 1), rd(130, 0, 0, 0, 0), rd(135, 0, 0, 1, 1))
	wantRule(t, c, "tCCD_L")
	for _, v := range c.Violations() {
		if v.Rule == "tCCD_S" {
			t.Fatalf("spurious tCCD_S at spacing 5: %v", v)
		}
	}
	// Cross-group CASes 3 apart: tCCD_S (4).
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(108, 0, 1, 0, 4), rd(130, 0, 0, 0, 0), rd(133, 0, 1, 0, 4)), "tCCD_S")
	// Read 2 cycles after a write burst ends: tWTR (9).
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(108, 0, 1, 0, 4), wr(130, 0, 0, 0, 0), rd(148, 0, 1, 0, 4)), "tWTR")
	// Write 2 cycles after a read burst ends: tRTW (8).
	wantRule(t, feed(act(100, 0, 0, 0, 0), act(108, 0, 1, 0, 4), rd(130, 0, 0, 0, 0), wr(152, 0, 1, 0, 4)), "tRTW")
}

func TestCheckerDataBusRules(t *testing.T) {
	tm := memsim.DDR4_2400()
	// A read whose burst starts at CL-1: CL consistency violated.
	bad := rd(130, 0, 0, 0, 0)
	bad.DataStart--
	bad.DataEnd--
	wantRule(t, feed(act(100, 0, 0, 0, 0), bad), "CL")
	// Overlapping bursts on the shared data bus: a WR 4 cycles after a RD
	// satisfies tCCD_S, but CWL < CL pulls its burst onto the read's.
	a := rd(130, 0, 0, 0, 0)
	b := wr(134, 0, 1, 0, 4)
	if b.DataStart >= a.DataEnd {
		t.Fatalf("test setup: bursts %d..%d and %d.. do not overlap", a.DataStart, a.DataEnd, b.DataStart)
	}
	c := feed(act(100, 0, 0, 0, 0), act(108, 0, 1, 0, 4), a, b)
	wantRule(t, c, "bus-overlap")
	_ = tm
	// Empty burst.
	e := rd(130, 0, 0, 0, 0)
	e.DataEnd = e.DataStart
	wantRule(t, feed(act(100, 0, 0, 0, 0), e), "empty-burst")
}

func TestCheckerRefreshRules(t *testing.T) {
	tm := memsim.DDR4_2400()
	refi := uint64(tm.TREFI)
	// A command inside the tRFC blackout after a refresh boundary.
	c := feed(act(refi+10, 0, 0, 0, 0))
	wantRule(t, c, "tRFC")
	// Misaligned REF.
	wantRule(t, feed(memsim.Command{Kind: memsim.CmdREF, At: refi + 3, FlatBank: -1}), "tREFI-align")
	// Out-of-order events.
	wantRule(t, feed(act(200, 0, 0, 0, 0), pre(180, 0, 0, 0, 0)), "event-order")
}

func TestCheckerViolationCapAndErr(t *testing.T) {
	c := check.ForProfile(memsim.MustProfile("ddr4-2400"))
	for i := 0; i < 50; i++ {
		c.Observe(rd(uint64(1000+40*i), 0, 0, 0, 0)) // every CAS hits a closed bank
	}
	if c.Total() != 50 {
		t.Fatalf("total %d, want 50", c.Total())
	}
	if len(c.Violations()) != 32 {
		t.Fatalf("recorded %d, want cap 32", len(c.Violations()))
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "50 protocol violations") {
		t.Fatalf("err %v", err)
	}
	if clean := check.ForProfile(memsim.MustProfile("ddr4-2400")); clean.Err() != nil {
		t.Fatal("empty checker reported an error")
	}
}

// runBroken simulates with a deliberately corrupted timing table while the
// checker asserts the true ddr4-2400 profile — the acceptance test that a
// scheduler timing bug cannot pass unseen.
func runBroken(t *testing.T, mutate func(*memsim.Timing), wl trace.Workload) *check.Checker {
	t.Helper()
	truth := memsim.MustProfile("ddr4-2400")
	broken := *truth
	mutate(&broken.Timing)
	cfg := broken.Config()
	chk := check.ForProfile(truth)
	cfg.Observer = chk
	memsim.MustRun(cfg, wl)
	return chk
}

func TestBrokenTimingIsCaught(t *testing.T) {
	// One hot line: every access hits the same open row, so CAS commands
	// pack at the bus/tCCD floor — the stream where CCD bugs surface.
	hotLine := trace.Generate(trace.Params{
		Name: "hot", Requests: 600, Lines: 1, Pattern: trace.Sequential,
		ReadFrac: 1, MeanGap: 0, Window: 8, Seed: 3,
	})
	// Small footprint: rows stay open, so read/write turnarounds happen
	// between row hits where the tWTR/tRTW slack is the binding constraint.
	hotMix := trace.Generate(trace.Params{
		Name: "hotmix", Requests: 600, Lines: 64, Pattern: trace.Random,
		ReadFrac: 0.5, MeanGap: 0, Window: 8, Seed: 5,
	})
	// Large random footprint: conflict misses exercise PRE/ACT spacing.
	mixed := trace.Generate(trace.Params{
		Name: "mix", Requests: 600, Lines: 1 << 16, Pattern: trace.Random,
		ReadFrac: 0.5, MeanGap: 1, Window: 8, Seed: 4,
	})
	cases := []struct {
		name string
		rule string
		wl   trace.Workload
		mut  func(*memsim.Timing)
	}{
		{"zero-tRP", "tRP", mixed, func(tm *memsim.Timing) { tm.TRP = 0 }},
		{"zero-tRCD", "tRCD", mixed, func(tm *memsim.Timing) { tm.TRCD = 0 }},
		{"short-tRAS", "tRAS", mixed, func(tm *memsim.Timing) { tm.TRAS = 2; tm.TRC = 18 }},
		{"short-tCCDL", "tCCD_L", hotLine, func(tm *memsim.Timing) { tm.TCCDL = 2 }},
		{"zero-tWTR", "tWTR", hotMix, func(tm *memsim.Timing) { tm.TWTR = 0 }},
		{"zero-tRTW", "tRTW", hotMix, func(tm *memsim.Timing) { tm.TRTW = 0 }},
		{"short-tRFC", "tRFC", mixed, func(tm *memsim.Timing) { tm.TRFC = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chk := runBroken(t, tc.mut, tc.wl)
			wantRule(t, chk, tc.rule)
		})
	}
	// Control: the unmutated scheduler is clean on every workload.
	for _, wl := range []trace.Workload{hotLine, hotMix, mixed} {
		chk := runBroken(t, func(*memsim.Timing) {}, wl)
		if err := chk.Err(); err != nil {
			t.Fatalf("control run on %s flagged: %v", wl.Name, err)
		}
	}
}
