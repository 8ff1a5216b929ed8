package reliability

import (
	"context"
	"math"
	"testing"

	"pair/internal/campaign"
	"pair/internal/faults"
	"pair/internal/schemes"
)

// goldenSpecs returns every canonical registry construction (each scheme
// on each organization it supports) plus the spared PAIR variant.
func goldenSpecs() []string {
	var specs []string
	for _, e := range schemes.All() {
		for _, orgID := range e.Orgs {
			specs = append(specs, schemes.CanonicalSpec(e, orgID))
		}
	}
	return append(specs, "pair:spare=3.7")
}

// goldenCounts runs one small fixed-seed campaign set for a scheme spec:
// the conditional profile at k = 1..4 stored-bit flips, then the pin,
// chipkill and inherent scenarios. Each row is {ok, ce, due, sdc}.
func goldenCounts(t *testing.T, spec string) [7][4]int64 {
	t.Helper()
	const trials, seed = 300, 5
	s, err := schemes.New(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	var rows [7][4]int64
	toCounts := func(r OutcomeRates) [4]int64 {
		var c [4]int64
		for i, v := range []float64{r.OK, r.CE, r.DUE, r.SDC} {
			c[i] = int64(math.Round(v * trials))
		}
		return c
	}
	prof, err := BuildProfileCtx(context.Background(), s, SweepConfig{MaxK: 4, Trials: trials, Seed: seed}, campaign.Options{})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	for k := 1; k <= 4; k++ {
		rows[k-1] = toCounts(prof.PerK[k])
	}
	for i, id := range []string{"pin", "chipkill", "inherent"} {
		r, err := ScenarioCoverageCtx(context.Background(), s, faults.MustScenario(id), trials, seed, campaign.Options{})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec, id, err)
		}
		rows[4+i] = toCounts(r.Rates)
	}
	return rows
}

// TestGoldenOutcomeCounts pins the exact outcome counts of every scheme
// on every organization it supports. Each row is {ok, ce, due, sdc} out
// of 300 trials: rows 0-3 are BuildProfileCtx at k = 1..4 flipped stored
// bits, rows 4-6 are ScenarioCoverageCtx under pin, chipkill and
// inherent. The values were generated once and are spelled out
// literally, so any change to a codec, an injector or the trial loop's
// RNG draw order shows up here as a count diff.
func TestGoldenOutcomeCounts(t *testing.T) {
	want := map[string][7][4]int64{
		"none":              {{0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {283, 0, 0, 17}},
		"none@ddr4x8":       {{0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {287, 0, 0, 13}},
		"none@ddr4x4":       {{0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {285, 0, 0, 15}},
		"none@ddr5x16":      {{0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {285, 0, 0, 15}},
		"none@ddr4x8ecc":    {{0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {0, 0, 0, 300}, {287, 0, 0, 13}},
		"iecc":              {{0, 300, 0, 0}, {0, 234, 10, 56}, {0, 99, 22, 179}, {0, 26, 39, 235}, {0, 15, 80, 205}, {0, 0, 146, 154}, {282, 18, 0, 0}},
		"iecc@ddr4x8":       {{0, 300, 0, 0}, {0, 263, 7, 30}, {0, 196, 24, 80}, {0, 123, 34, 143}, {0, 11, 106, 183}, {0, 0, 135, 165}, {290, 10, 0, 0}},
		"iecc@ddr4x4":       {{0, 300, 0, 0}, {0, 276, 6, 18}, {0, 247, 10, 43}, {0, 192, 28, 80}, {0, 7, 119, 174}, {0, 0, 113, 187}, {287, 13, 0, 0}},
		"iecc@ddr5x16":      {{0, 300, 0, 0}, {0, 145, 15, 140}, {0, 0, 14, 286}, {0, 0, 30, 270}, {0, 1, 86, 213}, {0, 0, 146, 154}, {282, 17, 0, 1}},
		"xed":               {{48, 252, 0, 0}, {11, 45, 244, 0}, {1, 9, 290, 0}, {1, 2, 296, 1}, {45, 253, 0, 2}, {58, 240, 0, 2}, {275, 23, 2, 0}},
		"xed@ddr4x8":        {{30, 270, 0, 0}, {1, 34, 265, 0}, {0, 3, 297, 0}, {0, 0, 300, 0}, {33, 263, 0, 4}, {29, 271, 0, 0}, {279, 19, 2, 0}},
		"xed@ddr5x16":       {{101, 199, 0, 0}, {41, 71, 188, 0}, {9, 17, 274, 0}, {4, 5, 291, 0}, {101, 198, 0, 1}, {109, 191, 0, 0}, {293, 7, 0, 0}},
		"duo":               {{0, 300, 0, 0}, {0, 231, 61, 8}, {0, 105, 180, 15}, {0, 34, 247, 19}, {0, 5, 288, 7}, {0, 0, 284, 16}, {280, 20, 0, 0}},
		"duo@ddr5x16":       {{0, 300, 0, 0}, {0, 163, 123, 14}, {0, 7, 253, 40}, {0, 0, 272, 28}, {0, 0, 278, 22}, {0, 0, 264, 36}, {289, 11, 0, 0}},
		"duo-rank":          {{0, 300, 0, 0}, {0, 300, 0, 0}, {0, 300, 0, 0}, {0, 300, 0, 0}, {0, 300, 0, 0}, {0, 300, 0, 0}, {279, 21, 0, 0}},
		"pair-base":         {{0, 300, 0, 0}, {0, 219, 77, 4}, {0, 116, 173, 11}, {0, 39, 245, 16}, {0, 300, 0, 0}, {0, 0, 277, 23}, {286, 14, 0, 0}},
		"pair-base@ddr4x8":  {{0, 300, 0, 0}, {0, 270, 30, 0}, {0, 217, 81, 2}, {0, 152, 143, 5}, {0, 300, 0, 0}, {0, 0, 286, 14}, {280, 20, 0, 0}},
		"pair-base@ddr4x4":  {{0, 300, 0, 0}, {0, 283, 17, 0}, {0, 259, 41, 0}, {0, 216, 83, 1}, {0, 300, 0, 0}, {0, 0, 291, 9}, {279, 21, 0, 0}},
		"pair-base@ddr5x16": {{0, 300, 0, 0}, {0, 145, 134, 21}, {0, 7, 249, 44}, {0, 0, 284, 16}, {0, 2, 265, 33}, {0, 0, 260, 40}, {282, 18, 0, 0}},
		"pair":              {{0, 300, 0, 0}, {0, 300, 0, 0}, {0, 275, 25, 0}, {0, 247, 53, 0}, {0, 300, 0, 0}, {0, 0, 298, 2}, {282, 18, 0, 0}},
		"pair@ddr4x8":       {{0, 300, 0, 0}, {0, 300, 0, 0}, {0, 296, 4, 0}, {0, 284, 16, 0}, {0, 300, 0, 0}, {0, 0, 300, 0}, {284, 16, 0, 0}},
		"pair@ddr4x4":       {{0, 300, 0, 0}, {0, 300, 0, 0}, {0, 300, 0, 0}, {0, 297, 3, 0}, {0, 300, 0, 0}, {0, 0, 299, 1}, {281, 19, 0, 0}},
		"pair@ddr5x16":      {{0, 300, 0, 0}, {0, 300, 0, 0}, {0, 228, 72, 0}, {0, 133, 166, 1}, {0, 300, 0, 0}, {0, 0, 299, 1}, {279, 21, 0, 0}},
		"secded":            {{0, 300, 0, 0}, {0, 269, 31, 0}, {0, 207, 91, 2}, {0, 119, 170, 11}, {0, 300, 0, 0}, {0, 0, 300, 0}, {287, 13, 0, 0}},
		"pair:spare=3.7":    {{0, 300, 0, 0}, {0, 278, 19, 3}, {0, 258, 40, 2}, {0, 203, 92, 5}, {0, 300, 0, 0}, {0, 0, 290, 10}, {280, 20, 0, 0}},
	}
	for _, spec := range goldenSpecs() {
		got := goldenCounts(t, spec)
		if w, ok := want[spec]; !ok {
			t.Errorf("%s: no golden counts", spec)
		} else if got != w {
			t.Errorf("%s: counts %v, want %v", spec, got, w)
		}
	}
}
