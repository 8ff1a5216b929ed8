package experiments

import (
	"context"
	"strings"
	"testing"

	"pair/internal/campaign"
)

func TestExtendedSchemesIncludeRankLevel(t *testing.T) {
	names := map[string]bool{}
	for _, s := range ExtendedSchemes() {
		names[s.Name()] = true
	}
	for _, want := range []string{"iecc", "xed", "duo", "pair", "secded", "duo-rank"} {
		if !names[want] {
			t.Fatalf("extended set missing %s", want)
		}
	}
}

func TestF8ScrubSweepShape(t *testing.T) {
	tb, err := F8ScrubSweepCtx(context.Background(), CommoditySchemes()[:2], 150, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || len(tb.Header) != 5 {
		t.Fatalf("F8 shape wrong: %d rows, %d cols", len(tb.Rows), len(tb.Header))
	}
	if !strings.Contains(tb.Render(), "scrub") {
		t.Fatal("F8 render broken")
	}
}

func TestF9DDR5Story(t *testing.T) {
	tb, err := F9DDR5Ctx(context.Background(), 250, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("F9 rows %d", len(tb.Rows))
	}
	// Row 2 is DDR5 base (t=1): pin faults must fail nearly always.
	// Row 3 is DDR5 expanded (t=2): pin faults must never fail.
	if tb.Rows[2][3] == "0" {
		t.Fatalf("DDR5 t=1 pin faults reported as safe: %v", tb.Rows[2])
	}
	if tb.Rows[3][3] != "0" {
		t.Fatalf("DDR5 t=2 pin faults failing: %v", tb.Rows[3])
	}
	// DDR4 rows: both configurations correct pin faults.
	if tb.Rows[0][3] != "0" || tb.Rows[1][3] != "0" {
		t.Fatalf("DDR4 pin faults failing: %v / %v", tb.Rows[0], tb.Rows[1])
	}
}

func TestF12RepairStory(t *testing.T) {
	tb, err := F12RepairCtx(context.Background(), CommoditySchemes(), 3000, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(CommoditySchemes()) {
		t.Fatalf("F12 rows %d", len(tb.Rows))
	}
	var pairRow, xedRow []string
	for _, row := range tb.Rows {
		switch row[0] {
		case "pair":
			pairRow = row
		case "xed":
			xedRow = row
		}
	}
	if pairRow == nil || xedRow == nil {
		t.Fatal("schemes missing from F12")
	}
	// XED's failures are silent: repair must not help it (improvement 1.0x
	// or no failures at all).
	if xedRow[4] != "0" {
		t.Fatalf("XED consumed repairs: %v", xedRow)
	}
	// PAIR must consume repairs (its failures are DUEs).
	if pairRow[4] == "0" {
		t.Fatalf("PAIR consumed no repairs: %v", pairRow)
	}
}

func TestF10SparingStory(t *testing.T) {
	tb, err := F10SparingCtx(context.Background(), 250, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("F10 rows %d", len(tb.Rows))
	}
	// Two dead pins + fresh cell: plain decode fails, spared succeeds.
	last := tb.Rows[2]
	if last[1] == "0" {
		t.Fatalf("plain decode with 2 dead pins reported safe: %v", last)
	}
	if last[2] != "0" {
		t.Fatalf("spared decode failing: %v", last)
	}
}
