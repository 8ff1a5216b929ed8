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

func smallCfg() SweepConfig { return SweepConfig{MaxK: 6, Trials: 3000, Seed: 7} }

func TestBuildProfileBasicShape(t *testing.T) {
	s := ecc.NewIECC(dram.DDR4x16())
	p, err := BuildProfileCtx(context.Background(), s, smallCfg(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBits != 544 {
		t.Fatalf("total bits %d", p.TotalBits)
	}
	if p.PerK[0].OK != 1 || p.PerK[0].Fail() != 0 {
		t.Fatal("k=0 must be all OK")
	}
	// One weak cell is always corrected by IECC.
	if p.PerK[1].Fail() != 0 {
		t.Fatalf("IECC k=1 fail rate %v, want 0", p.PerK[1].Fail())
	}
	if p.PerK[1].CE < 0.99 {
		t.Fatalf("IECC k=1 CE rate %v", p.PerK[1].CE)
	}
	// Two cells fail whenever they land in the same chip (~26%), and
	// rates must sum to ~1.
	f2 := p.PerK[2]
	if f2.Fail() < 0.1 || f2.Fail() > 0.5 {
		t.Fatalf("IECC k=2 fail rate %v implausible", f2.Fail())
	}
	sum := f2.OK + f2.CE + f2.DUE + f2.SDC
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rates sum to %v", sum)
	}
	// IECC's double-cell hazard must include silent corruption.
	if f2.SDC == 0 {
		t.Fatal("IECC k=2 SDC rate is zero — miscorrection missing")
	}
}

func TestProfilePAIRStrongerThanBase(t *testing.T) {
	base, err := BuildProfileCtx(context.Background(), core.MustNew(dram.DDR4x16(), core.BaseConfig()), smallCfg(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildProfileCtx(context.Background(), core.MustNew(dram.DDR4x16(), core.DefaultConfig()), smallCfg(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// k=2: expanded PAIR corrects everything (t=2 covers any 2 symbols),
	// base fails when the two cells hit different symbols of one chip.
	if full.PerK[2].Fail() != 0 {
		t.Fatalf("PAIR(20,16) k=2 fail %v, want 0", full.PerK[2].Fail())
	}
	if base.PerK[2].Fail() == 0 {
		t.Fatal("PAIR(18,16) k=2 never fails — implausible")
	}
	// k=3: expanded PAIR must fail strictly less often than base.
	if full.PerK[3].Fail() >= base.PerK[3].Fail() {
		t.Fatalf("expansion did not help at k=3: %v >= %v", full.PerK[3].Fail(), base.PerK[3].Fail())
	}
}

func TestAtBERFoldsBinomial(t *testing.T) {
	s := ecc.NewIECC(dram.DDR4x16())
	p, err := BuildProfileCtx(context.Background(), s, smallCfg(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r0 := p.AtBER(0)
	if r0.OK != 1 || r0.Fail() != 0 {
		t.Fatal("BER 0 must be all OK")
	}
	lo := p.AtBER(1e-7)
	hi := p.AtBER(1e-4)
	if lo.Fail() >= hi.Fail() {
		t.Fatal("failure rate not increasing in BER")
	}
	// At BER 1e-7 the failure probability must scale like the k=2 term:
	// C(544,2) * ber^2 * P(fail|2).
	want := math.Exp(lchoose(544, 2)) * 1e-14 * p.PerK[2].Fail()
	if lo.Fail() < want/3 || lo.Fail() > want*3 {
		t.Fatalf("low-BER failure %v not ~ %v", lo.Fail(), want)
	}
}

func TestAtBERPanicsOnBadInput(t *testing.T) {
	s := ecc.NewNone(dram.DDR4x16())
	p, err := BuildProfileCtx(context.Background(), s, SweepConfig{MaxK: 2, Trials: 100, Seed: 1}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid BER did not panic")
		}
	}()
	p.AtBER(2)
}

func TestBinomPMFSumsToOne(t *testing.T) {
	n := 100
	for _, p := range []float64{0, 1e-3, 0.5, 1} {
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += binomPMF(n, k, p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("p=%v: pmf sums to %v", p, sum)
		}
	}
	if binomPMF(10, 0, 0) != 1 || binomPMF(10, 3, 0) != 0 {
		t.Fatal("p=0 edge cases wrong")
	}
	if binomPMF(10, 10, 1) != 1 || binomPMF(10, 9, 1) != 0 {
		t.Fatal("p=1 edge cases wrong")
	}
}

func TestLogspaceBERs(t *testing.T) {
	bers := LogspaceBERs(1e-8, 1e-4, 5)
	if len(bers) != 5 || math.Abs(bers[0]-1e-8) > 1e-20 || math.Abs(bers[4]-1e-4)/1e-4 > 1e-9 {
		t.Fatalf("endpoints wrong: %v", bers)
	}
	for i := 1; i < len(bers); i++ {
		ratio := bers[i] / bers[i-1]
		if math.Abs(ratio-10) > 1e-6 {
			t.Fatalf("not log-spaced: %v", bers)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid range did not panic")
		}
	}()
	LogspaceBERs(0, 1, 3)
}

func TestSweepMonotoneFailure(t *testing.T) {
	s := core.MustNew(dram.DDR4x16(), core.DefaultConfig())
	p, err := BuildProfileCtx(context.Background(), s, smallCfg(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bers := LogspaceBERs(1e-7, 1e-4, 7)
	for i := 1; i < len(bers); i++ {
		if p.AtBER(bers[i]).Fail() < p.AtBER(bers[i-1]).Fail() {
			t.Fatalf("failure not monotone at %v", bers[i])
		}
	}
}

func TestCoveragePAIRPinVsDUOPin(t *testing.T) {
	pairS := core.MustNew(dram.DDR4x16(), core.DefaultConfig())
	duoS := ecc.NewDUO(dram.DDR4x16())
	inject := func(rng *rand.Rand, st *ecc.Stored) {
		ecc.InjectAccessFault(rng, st, faults.PermanentPin, -1)
	}
	p, err := CoverageCtx(context.Background(), pairS, "pin", 1000, 3, inject, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CoverageCtx(context.Background(), duoS, "pin", 1000, 3, inject, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rates.Fail() != 0 {
		t.Fatalf("PAIR pin-fault fail rate %v, want 0", p.Rates.Fail())
	}
	if d.Rates.Fail() < 0.8 {
		t.Fatalf("DUO pin-fault fail rate %v, want > 0.8", d.Rates.Fail())
	}
}

func TestStandardCoverageLabelsRun(t *testing.T) {
	s := core.MustNew(dram.DDR4x16(), core.DefaultConfig())
	labels := StandardCoverageLabels()
	if len(labels) < 8 {
		t.Fatalf("only %d coverage labels", len(labels))
	}
	for _, l := range labels {
		r, err := CoverageCtx(context.Background(), s, l.Label, 200, 5, l.Inject, nil, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum := r.Rates.OK + r.Rates.CE + r.Rates.DUE + r.Rates.SDC
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: rates sum to %v", l.Label, sum)
		}
	}
}

func TestCoverageDeterministic(t *testing.T) {
	s := ecc.NewIECC(dram.DDR4x16())
	inject := func(rng *rand.Rand, st *ecc.Stored) {
		ecc.InjectAccessFault(rng, st, faults.PermanentCell, -1)
		ecc.InjectAccessFault(rng, st, faults.PermanentCell, -1)
	}
	a, err := CoverageCtx(context.Background(), s, "2cell", 2000, 42, inject, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoverageCtx(context.Background(), s, "2cell", 2000, 42, inject, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates != b.Rates {
		t.Fatal("coverage not deterministic for fixed seed")
	}
}
