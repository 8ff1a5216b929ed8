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
	"pair/internal/stats"
)

// TestSemiAnalyticMatchesRawMonteCarlo validates the methodology behind
// F1/F2: at a BER high enough for raw Monte-Carlo to resolve, the
// binomial-conditioned estimate must agree with direct injection. This is
// the cross-check that justifies trusting the semi-analytic curves at
// BERs raw MC cannot reach.
func TestSemiAnalyticMatchesRawMonteCarlo(t *testing.T) {
	const ber = 3e-4
	for _, scheme := range []ecc.Scheme{
		ecc.NewIECC(dram.DDR4x16()),
		core.MustNew(dram.DDR4x16(), core.BaseConfig()),
	} {
		prof, err := BuildProfileCtx(context.Background(), scheme, SweepConfig{MaxK: 10, Trials: 8000, Seed: 21}, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		analytic := prof.AtBER(ber).Fail()

		rng := rand.New(rand.NewSource(77))
		line := make([]byte, scheme.Org().LineBytes())
		fails := int64(0)
		const trials = 120000
		for i := 0; i < trials; i++ {
			rng.Read(line)
			st := ecc.Encode(scheme, line)
			if ecc.InjectInherent(rng, st, ber) == 0 {
				continue
			}
			decoded, claim := ecc.Decode(scheme, st)
			if ecc.Classify(line, decoded, claim).IsFailure() {
				fails++
			}
		}
		lo, hi := stats.WilsonInterval(fails, trials)
		// Widen the Wilson bounds slightly for the analytic side's own
		// Monte-Carlo error.
		lo *= 0.7
		hi = hi*1.3 + 1e-9
		if analytic < lo || analytic > hi {
			t.Fatalf("%s: analytic %.3e outside raw-MC interval [%.3e, %.3e] (%d/%d failures)",
				scheme.Name(), analytic, lo, hi, fails, trials)
		}
		t.Logf("%s: analytic %.3e, raw MC %.3e (n=%d)", scheme.Name(), analytic, float64(fails)/trials, trials)
	}
}

// TestProfileScalesQuadratically pins the k=2-dominated regime: for a t=1
// scheme, halving the BER must quarter the failure probability.
func TestProfileScalesQuadratically(t *testing.T) {
	s := core.MustNew(dram.DDR4x16(), core.BaseConfig())
	prof, err := BuildProfileCtx(context.Background(), s, SweepConfig{MaxK: 8, Trials: 4000, Seed: 5}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := prof.AtBER(2e-6).Fail()
	f2 := prof.AtBER(1e-6).Fail()
	ratio := f1 / f2
	if math.Abs(ratio-4) > 0.4 {
		t.Fatalf("quadratic scaling violated: ratio %v, want ~4", ratio)
	}
}

// TestProfileScalesCubicallyForT2 pins the k=3-dominated regime of the
// expanded code.
func TestProfileScalesCubicallyForT2(t *testing.T) {
	s := core.MustNew(dram.DDR4x16(), core.DefaultConfig())
	prof, err := BuildProfileCtx(context.Background(), s, SweepConfig{MaxK: 8, Trials: 6000, Seed: 6}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := prof.AtBER(2e-6).Fail()
	f2 := prof.AtBER(1e-6).Fail()
	ratio := f1 / f2
	if math.Abs(ratio-8) > 1.5 {
		t.Fatalf("cubic scaling violated: ratio %v, want ~8", ratio)
	}
}
