// Benchmark harness: one benchmark per table and figure of the PAIR
// study's evaluation (DESIGN.md section 4 maps IDs to experiments). Each
// benchmark regenerates its artifact at CI scale and reports the
// headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Publication-scale runs go through
// `pairsim` (same code, bigger trial counts).
//
// Kernel-level microbenchmarks (encode/decode throughput of each codec)
// live next to their packages' tests in kernels_bench_test.go.
package pair_test

import (
	"context"
	"testing"

	"pair"
	"pair/internal/campaign"
	"pair/internal/experiments"
	"pair/internal/memsim"
)

func quickSweep() experiments.SweepSettings {
	s := experiments.QuickSweep()
	s.Trials = 1500
	return s
}

// BenchmarkT1_Config regenerates the scheme-configuration table.
func BenchmarkT1_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T1Config()
		if len(t.Rows) < 6 {
			b.Fatal("T1 incomplete")
		}
	}
}

// BenchmarkF1_ReliabilityVsBER regenerates the inherent-fault reliability
// sweep and reports the abstract's headline ratios.
func BenchmarkF1_ReliabilityVsBER(b *testing.B) {
	var ratioXED, ratioDUO float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.F1F2Ctx(context.Background(), experiments.CommoditySchemes(), quickSweep(), nil, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		idx := map[string]int{}
		for j, n := range r.Schemes {
			idx[n] = j
		}
		// Ratio at the second-lowest BER point (away from both floors).
		p := 1
		ratioXED = r.Fail[idx["xed"]][p] / r.Fail[idx["pair"]][p]
		ratioDUO = r.Fail[idx["duo"]][p] / r.Fail[idx["pair"]][p]
	}
	b.ReportMetric(ratioXED, "xed/pair")
	b.ReportMetric(ratioDUO, "duo/pair")
}

// BenchmarkF2_SDCVsBER regenerates the silent-corruption sweep and
// reports IECC's SDC excess over PAIR (the miscorrection hazard).
func BenchmarkF2_SDCVsBER(b *testing.B) {
	var ieccSDC, pairSDC float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.F1F2Ctx(context.Background(), experiments.CommoditySchemes(), quickSweep(), nil, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		idx := map[string]int{}
		for j, n := range r.Schemes {
			idx[n] = j
		}
		last := len(r.BERs) - 1
		ieccSDC = r.SDC[idx["iecc"]][last]
		pairSDC = r.SDC[idx["pair"]][last]
	}
	b.ReportMetric(ieccSDC, "iecc-sdc@1e-4")
	b.ReportMetric(pairSDC, "pair-sdc@1e-4")
}

// BenchmarkT2_FaultCoverage regenerates the per-fault-pattern outcome
// table.
func BenchmarkT2_FaultCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.T2CoverageEnvCtx(context.Background(), experiments.CommoditySchemes(), 800, nil, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) < 8 {
			b.Fatal("T2 incomplete")
		}
	}
}

// BenchmarkF3_Lifetime regenerates the 7-year mission reliability figure.
func BenchmarkF3_Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F3LifetimeCtx(context.Background(), experiments.CommoditySchemes(), 1500, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != len(experiments.CommoditySchemes()) {
			b.Fatal("F3 incomplete")
		}
	}
}

// BenchmarkF4_Performance regenerates the SPEC-like performance figure
// and reports the abstract's comparisons (PAIR vs XED ~ +14%, PAIR vs
// DUO ~ 0%).
func BenchmarkF4_Performance(b *testing.B) {
	var overXED, overDUO float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.F4Performance(experiments.PerfSchemes(), 6000, memsim.MustProfile("ddr4-2400"), experiments.SimInstrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		idx := map[string]int{}
		for j, n := range r.Schemes {
			idx[n] = j
		}
		overXED = (r.GeoMean[idx["pair"]]/r.GeoMean[idx["xed"]] - 1) * 100
		overDUO = (r.GeoMean[idx["pair"]]/r.GeoMean[idx["duo"]] - 1) * 100
	}
	b.ReportMetric(overXED, "pair-over-xed-%")
	b.ReportMetric(overDUO, "pair-over-duo-%")
}

// BenchmarkF5_WriteSweep regenerates the write-ratio ablation.
func BenchmarkF5_WriteSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F5WriteSweep(experiments.PerfSchemes(), 5000, memsim.MustProfile("ddr4-2400"), experiments.SimInstrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 6 {
			b.Fatal("F5 incomplete")
		}
	}
}

// BenchmarkF6_Expandability regenerates the expansion-level sweep.
func BenchmarkF6_Expandability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F6ExpandabilityCtx(context.Background(), 1200, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("F6 incomplete")
		}
	}
}

// BenchmarkF7_Burst regenerates the burst-error figure.
func BenchmarkF7_Burst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F7BurstCtx(context.Background(), experiments.CommoditySchemes(), 800, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatal("F7 incomplete")
		}
	}
}

// BenchmarkT3_Complexity regenerates the overhead table.
func BenchmarkT3_Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T3Complexity()
		if len(t.Rows) != 5 {
			b.Fatal("T3 incomplete")
		}
	}
}

// BenchmarkF8_ScrubSweep regenerates the scrub-interval ablation.
func BenchmarkF8_ScrubSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F8ScrubSweepCtx(context.Background(), experiments.CommoditySchemes(), 400, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != len(experiments.CommoditySchemes()) {
			b.Fatal("F8 incomplete")
		}
	}
}

// BenchmarkF9_DDR5 regenerates the cross-generation figure.
func BenchmarkF9_DDR5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F9DDR5Ctx(context.Background(), 500, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("F9 incomplete")
		}
	}
}

// BenchmarkF10_Sparing regenerates the pin-sparing figure.
func BenchmarkF10_Sparing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F10SparingCtx(context.Background(), 500, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatal("F10 incomplete")
		}
	}
}

// BenchmarkT4_BusEnergy regenerates the bus energy-proxy table.
func BenchmarkT4_BusEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T4BusEnergy()
		if len(t.Rows) != 6 {
			b.Fatal("T4 incomplete")
		}
	}
}

// BenchmarkF11_ScrubTraffic regenerates the scrub-bandwidth figure.
func BenchmarkF11_ScrubTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F11ScrubTraffic(3000, experiments.SimInstrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("F11 incomplete")
		}
	}
}

// BenchmarkF12_Repair regenerates the post-package-repair figure.
func BenchmarkF12_Repair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.F12RepairCtx(context.Background(), experiments.CommoditySchemes(), 1500, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != len(experiments.CommoditySchemes()) {
			b.Fatal("F12 incomplete")
		}
	}
}

// BenchmarkEncodeDecode_PAIR measures the headline scheme's line
// protect/recover throughput (the unit the reliability Monte-Carlo
// spends its time in).
func BenchmarkEncodeDecode_PAIR(b *testing.B) {
	scheme := pair.NewPAIR()
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i * 7)
	}
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pair.Encode(scheme, line)
		if _, claim := pair.Decode(scheme, st); claim != pair.ClaimClean {
			b.Fatal("clean decode failed")
		}
	}
}
