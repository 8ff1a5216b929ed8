package experiments

import (
	"strings"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/memsim"
	"pair/internal/schemes"
	"pair/internal/trace"
)

// TestPerfOnReusesBaselineRun pins that each distinct run is simulated
// once: the "none" scheme's cycles are the baseline run's cycles, and
// schemes with one cost model (iecc and pair) share one run, rather than
// simulating an identical configuration again. Every simulation writes
// one "# sim <label>" header to the command trace, so the headers count
// the runs.
func TestPerfOnReusesBaselineRun(t *testing.T) {
	suite := trace.SPECLike(400)[:3]
	org := dram.DDR4x16()
	for _, set := range [][]ecc.Scheme{
		{ecc.NewNone(org), ecc.NewIECC(org)},
		{ecc.NewNone(org), ecc.NewIECC(org), schemes.MustNew("pair")},
	} {
		var cmds strings.Builder
		res, err := simulate(set, suite, memsim.MustProfile("ddr4-2400"), true, "", SimInstrumentation{CmdTrace: &cmds})
		if err != nil {
			t.Fatal(err)
		}
		// 3 baseline runs + 3 iecc runs; none and pair cost no extra runs.
		if used := strings.Count(cmds.String(), "# sim "); used != 6 {
			t.Fatalf("%v: %d simulations, want 6 (one per workload and distinct cost)", res.Schemes, used)
		}
		// Reuse makes the equalities exact, not approximate: baseline
		// cycles == none-scheme cycles, so the normalized column is
		// identically 1.0, and pair's column is iecc's.
		for wi, w := range res.Workloads {
			if res.Normalized[wi][0] != 1.0 {
				t.Fatalf("%s: none normalized to %v, want exactly 1.0", w, res.Normalized[wi][0])
			}
			if len(set) == 3 && res.Normalized[wi][2] != res.Normalized[wi][1] {
				t.Fatalf("%s: pair %v, iecc %v; want equal", w, res.Normalized[wi][2], res.Normalized[wi][1])
			}
		}
	}
}

// TestSimInstrumentationCheck wires the instrumentation layer through a
// real experiment: with Check on, a clean run succeeds; the command
// trace writer receives one header per simulation.
func TestSimInstrumentationCheck(t *testing.T) {
	var sb strings.Builder
	inst := SimInstrumentation{Check: true, CmdTrace: &sb}

	suite := trace.SPECLike(300)[:2]
	set := []ecc.Scheme{ecc.NewNone(dram.DDR4x16()), ecc.NewXED(dram.DDR4x16())}
	if _, err := simulate(set, suite, memsim.MustProfile("ddr4-2400"), true, "", inst); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	out := sb.String()
	// 2 baseline + 2 xed headers; none reuses the baseline runs.
	if n := strings.Count(out, "# sim "); n != 4 {
		t.Fatalf("%d trace headers, want 4:\n%.400s", n, out)
	}
	if !strings.Contains(out, "# sim baseline/lbm") || !strings.Contains(out, "# sim xed/mcf") {
		t.Fatalf("missing run labels:\n%.400s", out)
	}
	if !strings.Contains(out, " ACT ") {
		t.Fatal("trace carries no commands")
	}
}
