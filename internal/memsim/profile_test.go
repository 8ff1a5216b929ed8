package memsim_test

import (
	"strings"
	"testing"

	"pair/internal/memsim"
	"pair/internal/registry"
	"pair/internal/trace"
)

func TestProfileRegistry(t *testing.T) {
	ids := memsim.ProfileIDs()
	want := []string{"ddr4-2400", "ddr5-4800", "lpddr5-6400"}
	if len(ids) != len(want) {
		t.Fatalf("profiles %v, want %v", ids, want)
	}
	list := memsim.ListProfilesText()
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("profiles %v, want %v", ids, want)
		}
		p, err := memsim.NewProfile(id) // NewProfile validates the builtin
		if err != nil || p.ID != id {
			t.Fatalf("builtin %q: %+v, %v", id, p, err)
		}
		if p.Spec() != id {
			t.Fatalf("builtin %q spec %q", id, p.Spec())
		}
		_, rest, listed := strings.Cut(list, "\n  "+id+" ")
		if desc, _, _ := strings.Cut(rest, "\n"); !listed || strings.TrimSpace(desc) == "" {
			t.Fatalf("ListProfilesText lists %q without a description:\n%s", id, list)
		}
	}
	if _, err := memsim.NewProfile("ddr6"); err == nil {
		t.Fatal("phantom profile")
	}
}

func TestProfileGeometry(t *testing.T) {
	ddr4 := memsim.MustProfile("ddr4-2400")
	if ddr4.Buses() != 1 || ddr4.Policy != memsim.OpenPage || ddr4.Refresh != memsim.RefreshAllBank {
		t.Fatalf("ddr4 geometry: %+v", ddr4)
	}
	ddr5 := memsim.MustProfile("ddr5-4800")
	if ddr5.Buses() != 2 || ddr5.Subchannels != 2 || ddr5.Org.BurstLen != 16 {
		t.Fatalf("ddr5 geometry: %+v", ddr5)
	}
	if ddr5.Refresh != memsim.RefreshSameBank || ddr5.NumBanks() != 32 {
		t.Fatalf("ddr5 refresh geometry: %+v", ddr5)
	}
	if ddr5.RefSlotPeriod() != uint64(ddr5.Timing.TREFI)/32 {
		t.Fatalf("ddr5 slot period %d", ddr5.RefSlotPeriod())
	}
	lp := memsim.MustProfile("lpddr5-6400")
	if lp.Channels != 2 || lp.Policy != memsim.ClosedPage || lp.NumBanks() != 16 {
		t.Fatalf("lpddr5 geometry: %+v", lp)
	}
	if memsim.OpenPage.String() != "open" || memsim.ClosedPage.String() != "closed" ||
		memsim.RefreshAllBank.String() != "all-bank" || memsim.RefreshSameBank.String() != "same-bank" {
		t.Fatal("enum strings")
	}
}

func TestParseProfileSpec(t *testing.T) {
	cases := []struct {
		spec      string
		canonical string
		ok        bool
	}{
		{"ddr4-2400", "ddr4-2400", true},
		{"ddr5-4800:policy=closed", "ddr5-4800:policy=closed", true},
		{"ddr5-4800:policy=closed,channels=2", "ddr5-4800:channels=2,policy=closed", true},
		{"", "", false},
		{":policy=open", "", false},
		{"ddr5-4800:policy=open:channels=2", "", false},
		{"ddr5-4800:policy", "", false},
		{"ddr5-4800:=open", "", false},
		{"ddr5-4800:policy=open,policy=closed", "", false},
	}
	for _, tc := range cases {
		p, err := memsim.NewProfile(tc.spec)
		if tc.ok != (err == nil) {
			t.Fatalf("build %q: err=%v, want ok=%v", tc.spec, err, tc.ok)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "memsim: ") {
				t.Fatalf("build %q: error %q lacks the memsim: prefix", tc.spec, err)
			}
			continue
		}
		if p.Spec() != tc.canonical {
			t.Fatalf("build %q canonical %q, want %q", tc.spec, p.Spec(), tc.canonical)
		}
		// Canonical form must rebuild to itself.
		p2, err := memsim.NewProfile(p.Spec())
		if err != nil || p2.Spec() != p.Spec() {
			t.Fatalf("canonical %q not stable: %v, %v", p.Spec(), p2, err)
		}
	}
}

func TestNewProfileOptions(t *testing.T) {
	p, err := memsim.NewProfile("ddr5-4800:policy=closed,channels=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Channels != 2 || p.Subchannels != 2 || p.Buses() != 4 || p.Policy != memsim.ClosedPage {
		t.Fatalf("options not applied: %+v", p)
	}
	if p.Spec() != "ddr5-4800:channels=2,policy=closed" {
		t.Fatalf("spec %q", p.Spec())
	}
	p2, err := memsim.NewProfile("ddr5-4800:refresh=all-bank")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Refresh != memsim.RefreshAllBank {
		t.Fatalf("refresh override: %+v", p2)
	}
	cfg := p.Config()
	if cfg.Profile != p || cfg.Ranks != 1 || cfg.Profile.Org.BurstLen != 16 {
		t.Fatalf("profile config: %+v", cfg)
	}
}

func TestNewProfileErrors(t *testing.T) {
	bad := []string{
		"ddr6",                        // unknown profile
		"ddr5-4800:tcl=40",            // unknown option
		"ddr5-4800:policy=maybe",      // bad policy
		"ddr5-4800:channels=0",        // out of range
		"ddr5-4800:channels=99",       // out of range
		"ddr5-4800:channels=two",      // not a number
		"ddr5-4800:refresh=never",     // bad refresh mode
		"ddr4-2400:refresh=same-bank", // DDR4 table has no tRFCsb
		"ddr5-4800@ddr5x16",           // profiles take no organization
		"compose(ddr5-4800)",          // nor compose
	}
	for _, spec := range bad {
		if _, err := memsim.NewProfile(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	// Error text enumerates valid IDs (registry-driven UX).
	_, err := memsim.NewProfile("ddr6")
	if err == nil || !strings.Contains(err.Error(), "ddr5-4800") {
		t.Fatalf("unknown-profile error %v should list valid IDs", err)
	}
}

// FuzzParseProfileSpec asserts build-or-reject (no panics) and that a
// built profile's Spec is the canonical form of its spec and rebuilds to
// itself. The grammar's own property is registry.FuzzParse.
func FuzzParseProfileSpec(f *testing.F) {
	for _, seed := range []string{
		"ddr4-2400",
		"ddr5-4800:policy=closed,channels=2",
		"lpddr5-6400:refresh=all-bank",
		"a:b=c",
		":x=y",
		"p:k=v,k=v",
		"p:k=v:k=v",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := memsim.NewProfile(spec)
		if err != nil {
			return
		}
		parsed, err := registry.Parse(spec)
		if err != nil {
			t.Fatalf("NewProfile built %q, which does not parse: %v", spec, err)
		}
		canon := p.Spec()
		if canon != parsed.String() {
			t.Fatalf("built profile spec %q != canonical %q", canon, parsed.String())
		}
		p2, err := memsim.NewProfile(canon)
		if err != nil {
			t.Fatalf("canonical %q of built %q rejected: %v", canon, spec, err)
		}
		if p2.Spec() != canon {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", spec, canon, p2.Spec())
		}
	})
}

// TestProfileRunsClean runs a mixed workload on every builtin profile and
// a few option variants with the profile-parameterized checker attached
// (via the harness Run); any protocol violation panics.
func TestProfileRunsClean(t *testing.T) {
	specs := []string{
		"ddr4-2400",
		"ddr5-4800",
		"ddr5-4800:policy=closed",
		"ddr5-4800:channels=2",
		"ddr5-4800:refresh=all-bank",
		"lpddr5-6400",
		"lpddr5-6400:policy=open",
	}
	wl := trace.Generate(trace.Params{
		Name: "mix", Requests: 3000, Lines: 1 << 16, Pattern: trace.Random,
		ReadFrac: 0.6, MaskedFrac: 0.3, MeanGap: 1, Window: 16, Seed: 42,
	})
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			cfg := memsim.MustProfile(spec).Config()
			res := Run(cfg, wl)
			if res.Cycles == 0 || res.Reads == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
			if res.RowHits+res.RowMisses != res.Reads+res.Writes {
				t.Fatalf("row accounting: %+v", res)
			}
		})
	}
}

func TestClosedPagePolicyNeverHits(t *testing.T) {
	// Closed page auto-precharges after every access: row hits are
	// impossible even on a maximally row-local stream.
	reqs := make([]trace.Request, 500)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: 5, Gap: 4}
	}
	wl := trace.Workload{Name: "hot", Window: 4, Reqs: reqs}
	res := Run(memsim.MustProfile("lpddr5-6400").Config(), wl)
	if res.RowHits != 0 || res.RowMisses != 500 {
		t.Fatalf("closed page hit rows: %+v", res)
	}
	// The same stream under open page is hit-dominated and faster.
	open := Run(memsim.MustProfile("lpddr5-6400:policy=open").Config(), wl)
	if open.RowHits == 0 {
		t.Fatalf("open-page control had no hits: %+v", open)
	}
	if open.Cycles >= res.Cycles {
		t.Fatalf("open page (%d cycles) not faster than closed (%d) on a hot row", open.Cycles, res.Cycles)
	}
}

func TestMoreChannelsFinishSaturatedStreamFaster(t *testing.T) {
	reqs := make([]trace.Request, 4000)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: uint64(i), Gap: 0}
	}
	wl := trace.Workload{Name: "sat", Window: 32, Reqs: reqs}
	two := Run(memsim.MustProfile("ddr5-4800").Config(), wl)             // 2 buses
	four := Run(memsim.MustProfile("ddr5-4800:channels=2").Config(), wl) // 4 buses
	if four.Cycles >= two.Cycles {
		t.Fatalf("4 buses (%d cycles) not faster than 2 (%d) when saturated", four.Cycles, two.Cycles)
	}
}

func TestSameBankRefreshEvents(t *testing.T) {
	prof := memsim.MustProfile("ddr5-4800")
	var refsb uint64
	var lastAt uint64
	period := prof.RefSlotPeriod()
	cfg := prof.Config()
	cfg.Observer = memsim.ObserverFunc(func(c memsim.Command) {
		if c.Kind == memsim.CmdREFSB {
			refsb++
			if c.At%period != 0 {
				t.Errorf("REFsb at %d not slot-aligned (period %d)", c.At, period)
			}
			if c.At <= lastAt && lastAt != 0 {
				t.Errorf("REFsb order: %d after %d", c.At, lastAt)
			}
			lastAt = c.At
		}
	})
	// Long sparse stream: the clock crosses many REFsb slots.
	reqs := make([]trace.Request, 400)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, Line: uint64(i) * 97, Gap: 500}
	}
	res := memsim.MustRun(cfg, trace.Workload{Name: "sparse", Window: 4, Reqs: reqs})
	if refsb == 0 {
		t.Fatal("no REFsb events observed")
	}
	if res.Refreshes != refsb || res.Cmds.REF != refsb {
		t.Fatalf("Refreshes %d, Cmds.REF %d, events %d", res.Refreshes, res.Cmds.REF, refsb)
	}
	// Same-bank refresh beats the all-bank blackout on this stream: the
	// whole-device tRFC stall is replaced by per-bank tRFCsb windows.
	allBank := Run(memsim.MustProfile("ddr5-4800:refresh=all-bank").Config(),
		trace.Workload{Name: "sparse", Window: 4, Reqs: reqs})
	if allBank.Refreshes == 0 {
		t.Fatalf("all-bank control had no refreshes: %+v", allBank)
	}
}
