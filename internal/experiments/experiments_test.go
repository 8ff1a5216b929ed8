package experiments

import (
	"context"
	"strings"
	"testing"

	"pair/internal/campaign"
	"pair/internal/memsim"
)

func tiny() SweepSettings {
	return SweepSettings{Trials: 400, MaxK: 5, BERLo: 1e-7, BERHi: 1e-4, Points: 4, Seed: 3}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	out := tb.Render()
	for _, want := range []string{"T\n", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSciAndPct(t *testing.T) {
	if sci(0) != "0" {
		t.Fatal("sci(0)")
	}
	if sci(1.5e-3) != "1.50e-03" {
		t.Fatalf("sci = %q", sci(1.5e-3))
	}
	if pct(0.125) != "12.5%" {
		t.Fatalf("pct = %q", pct(0.125))
	}
}

func TestT1ConfigComplete(t *testing.T) {
	tb := T1Config()
	out := tb.Render()
	for _, s := range []string{"none", "iecc", "secded", "xed", "duo", "pair-base", "pair"} {
		if !strings.Contains(out, s) {
			t.Fatalf("T1 missing scheme %s", s)
		}
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("row width %d != header width %d", len(row), len(tb.Header))
		}
	}
}

func TestF1F2ShapeAndOrdering(t *testing.T) {
	r, err := F1F2Ctx(context.Background(), CommoditySchemes(), tiny(), nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schemes) != 5 || len(r.Fail) != 5 || len(r.SDC) != 5 {
		t.Fatalf("sweep shape wrong: %d schemes", len(r.Schemes))
	}
	idx := map[string]int{}
	for i, n := range r.Schemes {
		idx[n] = i
	}
	// The paper's central ordering at every BER: pair strictly better
	// than iecc and xed on total failures.
	for i := range r.BERs {
		pairF := r.Fail[idx["pair"]][i]
		if pairF > r.Fail[idx["iecc"]][i] || pairF > r.Fail[idx["xed"]][i] {
			t.Fatalf("PAIR not best at BER %v", r.BERs[i])
		}
	}
	// Rendering works and carries the headline notes.
	f1 := r.RenderF1()
	if !strings.Contains(f1, "xed/pair") {
		t.Fatalf("F1 headline missing:\n%s", f1)
	}
	if !strings.Contains(r.RenderF2(), "SDC") {
		t.Fatal("F2 render broken")
	}
}

func TestT2CoverageShape(t *testing.T) {
	tb, err := T2CoverageEnvCtx(context.Background(), CommoditySchemes(), 150, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 8 {
		t.Fatalf("T2 has %d rows", len(tb.Rows))
	}
	// The pin row must show PAIR at 100/0/0 (always corrected).
	var pinRow []string
	for _, row := range tb.Rows {
		if row[0] == "pin" {
			pinRow = row
		}
	}
	if pinRow == nil {
		t.Fatal("no pin row")
	}
	pairCol := 0
	for i, h := range tb.Header {
		if h == "pair" {
			pairCol = i
		}
	}
	if pinRow[pairCol] != "100/0/0" {
		t.Fatalf("PAIR pin coverage = %s, want 100/0/0", pinRow[pairCol])
	}
}

func TestF3LifetimeSmoke(t *testing.T) {
	tb, err := F3LifetimeCtx(context.Background(), CommoditySchemes()[:2], 150, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("F3 rows %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Render(), "7-year") {
		t.Fatal("F3 render broken")
	}
}

func TestF4PerformanceHeadlines(t *testing.T) {
	r, err := F4Performance(PerfSchemes(), 2500, memsim.MustProfile("ddr4-2400"), SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 10 {
		t.Fatalf("%d workloads", len(r.Workloads))
	}
	idx := map[string]int{}
	for i, n := range r.Schemes {
		idx[n] = i
	}
	// Baseline normalizes to exactly 1.0 everywhere.
	for wi := range r.Workloads {
		if r.Normalized[wi][idx["none"]] != 1.0 {
			t.Fatal("baseline not 1.0")
		}
	}
	// The abstract's ordering: pair >= duo >= xed in geomean.
	gm := r.GeoMean
	if !(gm[idx["pair"]] >= gm[idx["duo"]] && gm[idx["duo"]] >= gm[idx["xed"]]) {
		t.Fatalf("performance ordering broken: pair=%v duo=%v xed=%v",
			gm[idx["pair"]], gm[idx["duo"]], gm[idx["xed"]])
	}
	// PAIR's advantage over XED must be visible (paper: ~14%).
	adv := gm[idx["pair"]]/gm[idx["xed"]] - 1
	if adv < 0.05 {
		t.Fatalf("PAIR over XED only %.1f%%", adv*100)
	}
	// PAIR vs DUO "similar performance": within a few percent.
	if d := gm[idx["pair"]]/gm[idx["duo"]] - 1; d < 0 || d > 0.10 {
		t.Fatalf("PAIR vs DUO gap %.1f%% out of band", d*100)
	}
	if !strings.Contains(r.Render(), "geomean") {
		t.Fatal("F4 render broken")
	}
}

func TestF5WriteSweepMonotone(t *testing.T) {
	tb, err := F5WriteSweep(PerfSchemes(), 2500, memsim.MustProfile("ddr4-2400"), SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("F5 rows %d", len(tb.Rows))
	}
	// XED's normalized performance must degrade as writes increase.
	xedCol := -1
	for i, h := range tb.Header {
		if h == "xed" {
			xedCol = i
		}
	}
	first := tb.Rows[0][xedCol]
	last := tb.Rows[len(tb.Rows)-1][xedCol]
	if !(last < first) { // string compare works for "0.xxx" fixed format
		t.Fatalf("XED not degrading with writes: %s -> %s", first, last)
	}
}

func TestF6ExpandabilityMonotone(t *testing.T) {
	tb, err := F6ExpandabilityCtx(context.Background(), 400, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("F6 rows %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "RS(18,16)" || tb.Rows[4][1] != "RS(22,16)" {
		t.Fatalf("F6 codewords wrong: %v", tb.Rows)
	}
}

func TestF7BurstPAIRColumn(t *testing.T) {
	tb, err := F7BurstCtx(context.Background(), CommoditySchemes(), 200, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairCol := -1
	for i, h := range tb.Header {
		if h == "pair" {
			pairCol = i
		}
	}
	// Along-pin bursts (first number of each cell) must be 0 for PAIR.
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[pairCol], "0 /") {
			t.Fatalf("PAIR failed along-pin burst: %v", row)
		}
	}
}

func TestT3ComplexityRows(t *testing.T) {
	tb := T3Complexity()
	if len(tb.Rows) != 5 {
		t.Fatalf("T3 rows %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatal("T3 row width mismatch")
		}
	}
}
