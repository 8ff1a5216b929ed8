package experiments

import (
	"strconv"
	"strings"
	"testing"

	"pair/internal/memsim"
)

func TestT4BusEnergyOrdering(t *testing.T) {
	tb := T4BusEnergy()
	if len(tb.Rows) != 6 {
		t.Fatalf("T4 rows %d", len(tb.Rows))
	}
	mix := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad mix cell %q", row[4])
		}
		mix[row[0]] = v
	}
	if !(mix["pair"] == mix["none"] && mix["pair"] < mix["duo"] && mix["duo"] < mix["xed"]) {
		t.Fatalf("energy ordering broken: %v", mix)
	}
	if !strings.Contains(tb.Render(), "catch-words") {
		t.Fatal("XED DBI conflict not rendered")
	}
}

func TestF11ScrubTraffic(t *testing.T) {
	tb, err := F11ScrubTraffic(3000, SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("F11 rows %d", len(tb.Rows))
	}
	// Normalized performance must be monotone non-increasing with rate.
	prev := 2.0
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		if v > prev+1e-9 {
			t.Fatalf("scrub cost not monotone: %v", tb.Rows)
		}
		prev = v
	}
}

func TestF4LatencyTable(t *testing.T) {
	r, err := F4Performance(PerfSchemes(), 2500, memsim.MustProfile("ddr4-2400"), SimInstrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	tb := F4Latency(r)
	if len(tb.Rows) != 2 {
		t.Fatalf("F4b rows %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatal("row width mismatch")
		}
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Fatalf("bad latency cell %q", cell)
			}
		}
	}
}
