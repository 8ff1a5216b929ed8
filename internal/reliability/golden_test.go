package reliability

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
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

// goldenFile holds the pinned counts: spec -> row name -> four counts.
const goldenFile = "testdata/golden_counts.json"

// goldenLifetimeFITs gives every fault kind ApplyDeviceFault handles a
// rate high enough that a 200-device population sees each kind, alone
// and in overlapping pairs.
func goldenLifetimeFITs() []faults.FITEntry {
	fits := make([]faults.FITEntry, faults.NumKinds)
	for k := range fits {
		fits[k] = faults.FITEntry{Kind: faults.Kind(k), Rate: 2e3}
	}
	return fits
}

// goldenCounts runs one small fixed-seed campaign set for a scheme spec
// and names each result row. Outcome rows are {ok, ce, due, sdc} out of
// 300 trials:
//
//   - "k=1".."k=4": BuildProfileCtx with k flipped stored bits
//     (FlipRandomStoredBits);
//   - "scenario/<id>": ScenarioCoverageCtx under every registered
//     scenario at default options (ScenarioInjector);
//   - "coverage/<label>": CoverageCtx under every T2 injector
//     (InjectAccessFault and the burst injectors).
//
// The "lifetime" row is {failed, sdc, due, repairs} of a 200-device
// RunLifetime, whose pattern estimates go through ApplyDeviceFault.
func goldenCounts(t *testing.T, spec string) map[string][4]int64 {
	t.Helper()
	const trials, seed = 300, 5
	ctx := context.Background()
	s, err := schemes.New(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	rows := map[string][4]int64{}
	toCounts := func(r OutcomeRates) [4]int64 {
		var c [4]int64
		for i, v := range []float64{r.OK, r.CE, r.DUE, r.SDC} {
			c[i] = int64(math.Round(v * trials))
		}
		return c
	}
	prof, err := BuildProfileCtx(ctx, s, SweepConfig{MaxK: 4, Trials: trials, Seed: seed}, campaign.Options{})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	for k := 1; k <= 4; k++ {
		rows[fmt.Sprintf("k=%d", k)] = toCounts(prof.PerK[k])
	}
	for _, id := range faults.ScenarioIDs() {
		r, err := ScenarioCoverageCtx(ctx, s, faults.MustScenario(id), trials, seed, campaign.Options{})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec, id, err)
		}
		rows["scenario/"+id] = toCounts(r.Rates)
	}
	for _, l := range StandardCoverageLabels() {
		r, err := CoverageCtx(ctx, s, l.Label, trials, seed, l.Inject, nil, campaign.Options{})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec, l.Label, err)
		}
		rows["coverage/"+l.Label] = toCounts(r.Rates)
	}
	life, err := RunLifetimeCtx(ctx, LifetimeConfig{
		Scheme:         s,
		Devices:        200,
		PatternSamples: 40,
		Seed:           seed,
		FITs:           goldenLifetimeFITs(),
		RepairBudget:   1,
	}, campaign.Options{})
	if err != nil {
		t.Fatalf("%s lifetime: %v", spec, err)
	}
	rows["lifetime"] = [4]int64{int64(life.Failed), int64(life.SDCFailures), int64(life.DUEFailures), int64(life.Repairs)}
	return rows
}

// TestGoldenOutcomeCounts pins the exact outcome counts of every scheme
// on every organization it supports, through every injection path: the
// stored-bit flips of the BER sweep, every registered fault scenario,
// every T2 access-fault injector and the device-fault path of the
// lifetime simulation. The values in testdata were generated once and
// are never regenerated to make a change pass, so any change to a codec,
// an injector, the stored-image layout or the trial loop's RNG draw
// order shows up here as a count diff.
func TestGoldenOutcomeCounts(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][4]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	specs := goldenSpecs()
	if len(want) != len(specs) {
		t.Errorf("%s has %d specs, the registry %d", goldenFile, len(want), len(specs))
	}
	for _, spec := range specs {
		w, ok := want[spec]
		if !ok {
			t.Errorf("%s: no golden counts", spec)
			continue
		}
		got := goldenCounts(t, spec)
		if len(got) != len(w) {
			t.Errorf("%s: %d rows, want %d", spec, len(got), len(w))
		}
		for row, g := range got {
			if g != w[row] {
				t.Errorf("%s %s: counts %v, want %v", spec, row, g, w[row])
			}
		}
	}
}
