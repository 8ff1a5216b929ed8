package experiments

import (
	"strings"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/trace"
)

// TestPerfOnReusesBaselineRun pins the fix for the double simulation of
// the zero-cost baseline: the "none" scheme's cycles are the baseline
// run's cycles, not a second simulation of the identical configuration.
// Every simulation writes one "# sim <label>" header to the command
// trace, so the headers count the runs.
func TestPerfOnReusesBaselineRun(t *testing.T) {
	suite := trace.SPECLike(400)[:3]
	schemes := []ecc.Scheme{ecc.NewNone(dram.DDR4x16()), ecc.NewIECC(dram.DDR4x16())}

	var cmds strings.Builder
	res, err := perfOnProfile(schemes, suite, nil, SimInstrumentation{CmdTrace: &cmds})
	if err != nil {
		t.Fatal(err)
	}
	used := strings.Count(cmds.String(), "# sim ")
	// 3 baseline runs + 3 iecc runs; the none column costs no extra runs.
	if used != 6 {
		t.Fatalf("perfOnProfile used %d simulations, want 6 (baseline reused for the zero-cost scheme)", used)
	}
	// Reuse makes the equality exact, not approximate: baseline cycles ==
	// none-scheme cycles, so the normalized column is identically 1.0.
	for wi, w := range res.Workloads {
		if res.Normalized[wi][0] != 1.0 {
			t.Fatalf("%s: none normalized to %v, want exactly 1.0", w, res.Normalized[wi][0])
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
	schemes := []ecc.Scheme{ecc.NewNone(dram.DDR4x16()), ecc.NewXED(dram.DDR4x16())}
	if _, err := perfOnProfile(schemes, suite, nil, inst); err != nil {
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
