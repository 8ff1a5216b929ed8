package reliability

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pair/internal/campaign"
	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0.5, 3, 50} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += poisson(rng, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("poisson(%v) sample mean %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean must give 0")
	}
}

func TestBernoulliFail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Zero hazard never fails.
	if fail, _ := bernoulliFail(rng, patternStats{}, 1000); fail {
		t.Fatal("zero hazard failed")
	}
	// Certain hazard with huge footprint always fails.
	fail, _ := bernoulliFail(rng, patternStats{fail: 1, sdc: 1}, 10)
	if !fail {
		t.Fatal("certain hazard survived")
	}
	// SDC share respected: fail=0.5, sdc=0.5 => all failures silent.
	for i := 0; i < 100; i++ {
		if f, s := bernoulliFail(rng, patternStats{fail: 0.5, sdc: 0.5}, 1<<30); f && !s {
			t.Fatal("sdc share not respected")
		}
	}
}

func TestSchemeCoupling(t *testing.T) {
	if schemeCouplesChips(core.MustNew(dram.DDR4x16(), core.DefaultConfig())) {
		t.Fatal("PAIR must be per-chip")
	}
	if !schemeCouplesChips(ecc.NewXED(dram.DDR4x16())) {
		t.Fatal("XED must couple chips")
	}
}

func TestRunLifetimeSmokeAndOrdering(t *testing.T) {
	// Small population with inflated FITs so every scheme sees faults;
	// verifies mechanics (no panics, monotone CDF, None fails most).
	fits := []faults.FITEntry{
		{Kind: faults.PermanentCell, Rate: 5e4},
		{Kind: faults.TransientBit, Rate: 5e4},
		{Kind: faults.PermanentPin, Rate: 1e4},
		{Kind: faults.PermanentRow, Rate: 5e3},
	}
	run := func(s ecc.Scheme) LifetimeResult {
		r, err := RunLifetimeCtx(context.Background(), LifetimeConfig{
			Scheme:         s,
			Years:          7,
			Devices:        800,
			PatternSamples: 120,
			Seed:           11,
			FITs:           fits,
		}, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	none := run(ecc.NewNone(dram.DDR4x16()))
	pairS := run(core.MustNew(dram.DDR4x16(), core.DefaultConfig()))
	iecc := run(ecc.NewIECC(dram.DDR4x16()))

	if none.FailProb() == 0 {
		t.Fatal("unprotected scheme never failed under inflated FITs")
	}
	if pairS.FailProb() >= none.FailProb() {
		t.Fatalf("PAIR (%v) not better than none (%v)", pairS.FailProb(), none.FailProb())
	}
	if pairS.FailProb() > iecc.FailProb() {
		t.Fatalf("PAIR (%v) worse than IECC (%v)", pairS.FailProb(), iecc.FailProb())
	}
	for _, r := range []LifetimeResult{none, pairS, iecc} {
		if len(r.FailYearCDF) != 7 {
			t.Fatalf("CDF has %d years", len(r.FailYearCDF))
		}
		for i := 1; i < len(r.FailYearCDF); i++ {
			if r.FailYearCDF[i] < r.FailYearCDF[i-1] {
				t.Fatal("CDF not monotone")
			}
		}
		if got := r.FailYearCDF[len(r.FailYearCDF)-1]; math.Abs(got-r.FailProb()) > 1e-9 {
			t.Fatalf("CDF end %v != fail prob %v", got, r.FailProb())
		}
		if r.Failed != r.SDCFailures+r.DUEFailures {
			t.Fatal("failure split inconsistent")
		}
	}
	// None's failures are all silent (no detection at all).
	if none.DUEFailures != 0 {
		t.Fatal("unprotected scheme reported detected errors")
	}
}

func TestRunLifetimeDeterministic(t *testing.T) {
	cfg := LifetimeConfig{
		Scheme:         ecc.NewIECC(dram.DDR4x16()),
		Years:          3,
		Devices:        300,
		PatternSamples: 80,
		Seed:           5,
		FITs:           []faults.FITEntry{{Kind: faults.PermanentCell, Rate: 1e5}},
	}
	a, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed != b.Failed || a.SDCFailures != b.SDCFailures {
		t.Fatalf("lifetime not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunLifetimeDefaultsApplied(t *testing.T) {
	r, err := RunLifetimeCtx(context.Background(), LifetimeConfig{
		Scheme:  ecc.NewNone(dram.DDR4x16()),
		Devices: 50, // keep the smoke test fast; other fields default
	}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MissionYears != 7 || len(r.FailYearCDF) != 7 {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

func TestTransientPairingNeedsTemporalOverlap(t *testing.T) {
	// With only transient faults at a rate where pairs within one scrub
	// interval are rare but totals are high, IECC (which fails only on
	// same-chip pairs) must fail far less often than the raw fault count
	// suggests. This exercises the expiry purge path.
	fits := []faults.FITEntry{{Kind: faults.TransientBit, Rate: 2e5}}
	r, err := RunLifetimeCtx(context.Background(), LifetimeConfig{
		Scheme:         ecc.NewIECC(dram.DDR4x16()),
		Years:          2,
		ScrubHours:     0.5,
		Devices:        400,
		PatternSamples: 60,
		Seed:           13,
		FITs:           fits,
	}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ~2e5 FIT * 4 chips * 17532h = ~14 transients per device; with a
	// 30-minute scrub the expected concurrent pairs are <<1, so the
	// failure probability must stay well below 1.
	if r.FailProb() > 0.5 {
		t.Fatalf("scrubbing ineffective: fail prob %v", r.FailProb())
	}
}
