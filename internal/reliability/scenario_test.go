package reliability

import (
	"context"
	"testing"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/schemes"
)

// evalSet builds the commodity evaluation schemes by registry name.
func evalSet(t *testing.T, names ...string) map[string]ecc.Scheme {
	t.Helper()
	out := make(map[string]ecc.Scheme, len(names))
	for _, n := range names {
		s, err := schemes.New(n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = s
	}
	return out
}

// TestScenarioDifferential is the strength/weakness matrix of the study,
// executed as assertions instead of a table: each scheme's geometric
// niche must show up under exactly the scenario family its symbolization
// covers, and the universal killer must defeat everyone.
func TestScenarioDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo differential suite")
	}
	const trials = 2000
	set := evalSet(t, "iecc", "xed", "duo", "pair-base", "pair")

	fail := func(scheme, spec string) float64 {
		t.Helper()
		r, err := ScenarioCoverageCtx(context.Background(), set[scheme], faults.MustScenario(spec), trials, 1, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Rates.Fail()
	}

	// PAIR's strength: pin and along-pin burst faults stay inside one
	// pin-aligned symbol, so PAIR (and even its t=1 base) never fails —
	// while every beat-aligned or per-bit rival has a failure mode.
	for _, spec := range []string{"pin", "pinburst:b=4", "pinburst:b=8"} {
		for _, scheme := range []string{"pair", "pair-base"} {
			if f := fail(scheme, spec); f != 0 {
				t.Errorf("%s under %s: fail rate %v, want exactly 0", scheme, spec, f)
			}
		}
		for _, rival := range []string{"iecc", "duo"} {
			if f := fail(rival, spec); f == 0 {
				t.Errorf("%s under %s: fail rate 0, expected a nonzero failure mode", rival, spec)
			}
		}
	}

	// DUO's niche: a full-width beat burst covers 8 consecutive pins — 8
	// pin-aligned symbols, hopeless for PAIR — but only 1..2 beat-aligned
	// byte symbols, so DUO corrects the aligned fraction.
	if f := fail("pair", "beatburst:b=8"); f != 1 {
		t.Errorf("pair under beatburst:b=8: fail rate %v, want exactly 1 (8 pin symbols > t=2)", f)
	}
	if f := fail("duo", "beatburst:b=8"); f >= 1 || f <= 0 {
		t.Errorf("duo under beatburst:b=8: fail rate %v, want in (0,1): corrects aligned bursts only", f)
	}

	// XED's niche: its rank-XOR image reconstructs one whole flagged chip,
	// so a single-chip kill is survivable for XED alone.
	if f := fail("xed", "chipkill"); f > 0.05 {
		t.Errorf("xed under chipkill: fail rate %v, want near 0 (rank-XOR reconstruction)", f)
	}
	for _, scheme := range []string{"iecc", "duo", "pair-base", "pair"} {
		if f := fail(scheme, "chipkill"); f < 0.9 {
			t.Errorf("%s under chipkill: fail rate %v, want near 1 (per-chip-access code)", scheme, f)
		}
	}

	// The universal killer: two simultaneous chip failures exceed every
	// evaluated scheme's redundancy, XED's XOR included.
	for scheme := range set {
		if f := fail(scheme, "chipkill:chips=2"); f < 0.9 {
			t.Errorf("%s under chipkill:chips=2: fail rate %v, want near 1", scheme, f)
		}
	}

	// IECC's per-chip SEC Hamming keeps its own niche: any single cell.
	if f := fail("iecc", "cell"); f != 0 {
		t.Errorf("iecc under cell: fail rate %v, want exactly 0 (SEC corrects 1 bit)", f)
	}
}

// TestScenarioCoverageWorkerDeterminism: a scenario campaign's counts
// are a function of (scheme, spec, trials, seed) alone — never of the
// worker count that happened to execute the shards.
func TestScenarioCoverageWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []string{"retention:pop=0.01,cluster=3", "compose(pin,vrt:flicker=0.5)", "chipkill"} {
		sc := faults.MustScenario(spec)
		scheme, err := schemes.New("pair")
		if err != nil {
			t.Fatal(err)
		}
		var base CoverageResult
		for i, workers := range []int{1, 2, 7} {
			r, err := ScenarioCoverageCtx(ctx, scheme, sc, 600, 3, campaign.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = r
				continue
			}
			if r != base {
				t.Fatalf("%s: results differ between 1 and %d workers:\n%+v\n%+v", spec, workers, base, r)
			}
		}
	}
}

// TestScenarioCampaignLabel pins the scenario campaign's checkpoint
// identity: the "scenario" prefix (its own namespace, away from the
// frozen "coverage" labels whose short names collide with scenario IDs)
// joined with the scheme's campaign ID and the canonical spec. Changing
// this string orphans every existing scenario checkpoint — do it only
// with a migration story.
func TestScenarioCampaignLabel(t *testing.T) {
	scheme, err := schemes.New("pair")
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.MustScenario("pinburst:b=4")
	got := campaign.JoinLabel("scenario", schemes.CampaignID(scheme), sc.Spec())
	if want := "scenario/pair-x16-bl8-c4/pinburst:b=4"; got != want {
		t.Fatalf("scenario campaign label = %q, want %q", got, want)
	}
	// Equal scenarios written with differently ordered options share one
	// campaign (and its checkpoints), because the label embeds the
	// canonical spec.
	a := faults.MustScenario("retention:pop=1e-5,cluster=3").Spec()
	b := faults.MustScenario("retention:cluster=3,pop=1e-5").Spec()
	if a != b {
		t.Fatalf("canonical specs differ: %q vs %q", a, b)
	}
}

// TestBuildProfileAmbientFaults: a sweep with an ambient scenario keeps
// the frozen default labels untouched (nil Faults) and shifts the k=0
// baseline away from all-OK when the ambient layer bites.
func TestBuildProfileAmbientFaults(t *testing.T) {
	scheme, err := schemes.New("iecc")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := BuildProfileCtx(context.Background(), scheme, SweepConfig{MaxK: 2, Trials: 400, Seed: 5}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.PerK[0] != (OutcomeRates{OK: 1}) {
		t.Fatalf("default sweep k=0 row = %+v, want all-OK", clean.PerK[0])
	}
	amb, err := BuildProfileCtx(context.Background(), scheme, SweepConfig{MaxK: 2, Trials: 400, Seed: 5, Faults: faults.MustScenario("chipkill")}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if amb.PerK[0].Fail() < 0.9 {
		t.Fatalf("ambient chipkill sweep k=0 fail rate %v, want near 1", amb.PerK[0].Fail())
	}
}
