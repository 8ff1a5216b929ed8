package experiments

import (
	"strconv"
	"strings"
	"testing"

	"pair/internal/memsim"
)

func TestF4ProfileGeomeansShape(t *testing.T) {
	set := PerfSchemes()
	var cols []*PerfResult
	for _, spec := range []string{"ddr4-2400", "ddr5-4800"} {
		r, err := F4Performance(set, 600, memsim.MustProfile(spec), SimInstrumentation{})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, r)
	}
	tb := F4ProfileGeomeans(cols...)
	if len(tb.Header) != 3 || tb.Header[1] != "ddr4-2400" || tb.Header[2] != "ddr5-4800" {
		t.Fatalf("header %v", tb.Header)
	}
	if len(tb.Rows) != len(set) {
		t.Fatalf("rows %d, want %d", len(tb.Rows), len(set))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 || v > 1.001 {
				t.Fatalf("geomean cell %q out of (0,1]", cell)
			}
		}
		// The baseline scheme normalizes to exactly 1.0 on every profile.
		if row[0] == "none" && (row[1] != "1.000" || row[2] != "1.000") {
			t.Fatalf("none row %v", row)
		}
	}
}

func TestF14TailLatencyShape(t *testing.T) {
	set := PerfSchemes()
	prof := memsim.MustProfile("ddr5-4800")
	tb, err := F14TailLatency(set, 1500, prof, SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "ddr5-4800") {
		t.Fatalf("title %q misses profile", tb.Title)
	}
	if len(tb.Rows) != len(f14Points()) {
		t.Fatalf("rows %d, want %d", len(tb.Rows), len(f14Points()))
	}
	parse := func(cell string) (p99, p999 float64) {
		parts := strings.Split(cell, "/")
		if len(parts) != 2 {
			t.Fatalf("bad tail cell %q", cell)
		}
		a, err1 := strconv.ParseFloat(parts[0], 64)
		b, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad tail cell %q", cell)
		}
		return a, b
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatal("row width mismatch")
		}
		for _, cell := range row[1:] {
			p99, p999 := parse(cell)
			if p99 <= 0 || p999 < p99 {
				t.Fatalf("tail ordering broken in %q", cell)
			}
		}
	}
	// Load ramp: the Poisson p99 at 0.35 req/cycle must exceed the p99 at
	// 0.05 for the baseline scheme (open-loop queueing).
	lo, _ := parse(tb.Rows[0][1])
	hi, _ := parse(tb.Rows[3][1])
	if hi <= lo {
		t.Fatalf("p99 did not grow with load: %.0f -> %.0f", lo, hi)
	}
}

func TestF4LatencyOnProfileRuns(t *testing.T) {
	r, err := F4Performance(PerfSchemes(), 1000, memsim.MustProfile("ddr5-4800"), SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	tb := F4Latency(r)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if strings.Count(cell, "/") != 2 {
				t.Fatalf("want mean/p99/p999 cell, got %q", cell)
			}
		}
	}
}

func TestF5WriteSweepOnProfileRuns(t *testing.T) {
	tb, err := F5WriteSweep(PerfSchemes(), 800, memsim.MustProfile("ddr5-4800"), SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Title, "ddr5-4800") {
		t.Fatalf("title %q misses profile", tb.Title)
	}
}
