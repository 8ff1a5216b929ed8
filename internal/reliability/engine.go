// Package reliability implements the Monte-Carlo evaluation machinery for
// the PAIR study: the semi-analytic inherent-fault (BER) sweep behind
// figures F1/F2/F6, the per-fault-type coverage campaign behind table T2
// and figure F7, and the device-lifetime simulation behind figure F3.
//
// # Semi-analytic BER sweep
//
// Raw Monte-Carlo cannot resolve failure probabilities of 1e-12 at low
// bit-error rates. Instead the sweep conditions on the number of flipped
// stored bits: P(fail) = sum_k Binom(totalBits, ber, k) * P(fail | k),
// with P(fail | k) estimated once per k by injecting exactly k distinct
// random weak cells into the stored image. The conditional terms are
// BER-independent, so one set of conditional estimates serves the whole
// sweep — and the tail terms are exact binomial weights, letting the
// curves extend to arbitrarily low BER.
//
// # Campaign execution
//
// Every Monte-Carlo loop here runs through internal/campaign: trials are
// sliced into shards with seeds derived from (label, seed, shard index),
// never from a worker index, so results are bit-identical for any worker
// count and survive kill-and-resume through campaign checkpoints. Every
// campaign entry point (BuildProfileCtx, CoverageCtx,
// ScenarioCoverageCtx, RunLifetimeCtx) takes a context for cancellation
// plus campaign.Options for checkpointing and progress; a caller that
// wants neither passes context.Background() and the zero Options.
package reliability

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/schemes"
)

// Campaign labels name a scheme *and* its organization (scheme names
// alone are not unique across device widths or DRAM generations) via
// schemes.CampaignID — the registry's frozen checkpoint-compatible
// identity, byte-identical to the schemeLabel format this package used
// before the registry existed, so old checkpoint directories resume.

// MergeCounts folds one shard's outcome counts into the aggregate. It is
// the fold every campaign here hands campaign.Run, and the one the fleet
// coordinator applies to worker fragments in ascending shard order, so
// its aggregate is byte-identical to a local run.
func MergeCounts(agg *[4]int64, s [4]int64) {
	for i := range agg {
		agg[i] += s[i]
	}
}

// RatesFromCounts normalizes outcome counts by the campaign trial count,
// so remote executors reproduce local rates from merged counts exactly.
func RatesFromCounts(counts [4]int64, trials int) OutcomeRates {
	n := float64(trials)
	return OutcomeRates{
		OK:  float64(counts[ecc.OutcomeOK]) / n,
		CE:  float64(counts[ecc.OutcomeCE]) / n,
		DUE: float64(counts[ecc.OutcomeDUE]) / n,
		SDC: float64(counts[ecc.OutcomeSDC]) / n,
	}
}

// runTrials executes n trials with the given RNG and returns the outcome
// counts. Each trial clears one reused image to the all-zero codeword,
// injects faults, decodes and classifies against the all-zero line.
// Every scheme is a linear code whose decoder acts on the syndrome alone,
// and every injector XORs in a pattern drawn from the RNG alone, so a
// trial's outcome depends only on its error pattern and equals the
// outcome on any encoded line (TestZeroCodewordEquivalence checks this
// per trial for every scheme and injection path). Each trial still reads
// a line's worth of random bytes into scratch, as when it encoded them:
// Rand.Read carries a partial word between calls, so without the read
// every later draw would shift, and with them every count and
// checkpoint. The loop allocates nothing in steady state for the pooled
// schemes.
func runTrials(scheme ecc.Scheme, rng *rand.Rand, n int, inject func(*rand.Rand, *ecc.Stored)) (counts [4]int64) {
	lineBytes := scheme.Org().LineBytes()
	scratch, zero, decoded := make([]byte, lineBytes), make([]byte, lineBytes), make([]byte, lineBytes)
	st := scheme.NewStored()
	sts, dst := []*ecc.Stored{st}, [][]byte{decoded}
	claims := make([]ecc.Claim, 1)
	for t := 0; t < n; t++ {
		rng.Read(scratch)
		st.Zero()
		inject(rng, st)
		scheme.DecodeBatchInto(dst, sts, claims)
		counts[ecc.Classify(zero, decoded, claims[0])]++
	}
	return counts
}

// OutcomeRates is the per-access probability of each classified outcome.
type OutcomeRates struct {
	OK, CE, DUE, SDC float64
}

// Fail returns the total failure probability (DUE + SDC).
func (r OutcomeRates) Fail() float64 { return r.DUE + r.SDC }

// Add accumulates s into r scaled by w.
func (r *OutcomeRates) addScaled(s OutcomeRates, w float64) {
	r.OK += w * s.OK
	r.CE += w * s.CE
	r.DUE += w * s.DUE
	r.SDC += w * s.SDC
}

// ConditionalProfile holds P(outcome | exactly k flipped stored bits) for
// k = 0..MaxK, estimated by Monte-Carlo.
type ConditionalProfile struct {
	SchemeName string
	TotalBits  int
	Trials     int
	PerK       []OutcomeRates // index k
}

// SweepConfig parameterizes the semi-analytic BER sweep.
type SweepConfig struct {
	MaxK   int   // largest conditioned flip count (default 16)
	Trials int   // Monte-Carlo trials per k (default 20000)
	Seed   int64 // base RNG seed
	// Faults, when non-nil, is an ambient fault scenario corrupting every
	// trial's image after the conditioned weak-cell flips. The campaign
	// label then gains a "faults=<spec>" component; nil is the frozen
	// default whose labels (and therefore seed streams and checkpoint
	// files) stay byte-identical to the pre-scenario engine.
	Faults faults.Scenario
}

func (c *SweepConfig) setDefaults() {
	if c.MaxK == 0 {
		c.MaxK = 16
	}
	if c.Trials == 0 {
		c.Trials = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BuildProfileCtx estimates the conditional outcome rates for a scheme,
// running one sharded campaign per conditioned flip count k. Results are
// bit-identical for a given (scheme, config) regardless of worker count
// or interruption/resume, because every shard derives its RNG stream
// from the campaign label, seed and shard index alone.
func BuildProfileCtx(ctx context.Context, scheme ecc.Scheme, cfg SweepConfig, opts campaign.Options) (*ConditionalProfile, error) {
	cfg.setDefaults()
	totalBits := scheme.NewStored().TotalBits()
	prof := &ConditionalProfile{
		SchemeName: scheme.Name(),
		TotalBits:  totalBits,
		Trials:     cfg.Trials,
		PerK:       make([]OutcomeRates, cfg.MaxK+1),
	}
	prof.PerK[0] = OutcomeRates{OK: 1}

	var ambient func(*rand.Rand, *ecc.Stored)
	if cfg.Faults != nil {
		ambient = ecc.ScenarioInjector(cfg.Faults)
		// The ambient scenario corrupts even the k=0 row: the sweep's
		// baseline is no longer a guaranteed-clean access.
		spec := campaign.Spec{
			Label:  campaign.JoinLabel("profile", schemes.CampaignID(scheme), "k=0", "faults="+cfg.Faults.Spec()),
			Trials: cfg.Trials,
			Seed:   cfg.Seed,
		}
		counts, err := campaign.Run(ctx, spec, opts, func(rng *rand.Rand, n int) [4]int64 {
			return runTrials(scheme, rng, n, ambient)
		}, MergeCounts)
		if err != nil {
			return nil, err
		}
		prof.PerK[0] = RatesFromCounts(counts, cfg.Trials)
	}

	for k := 1; k <= cfg.MaxK; k++ {
		k := k
		label := campaign.JoinLabel("profile", schemes.CampaignID(scheme), fmt.Sprintf("k=%d", k))
		inject := func(r *rand.Rand, st *ecc.Stored) {
			ecc.FlipRandomStoredBits(r, st, k)
		}
		if ambient != nil {
			label = campaign.JoinLabel(label, "faults="+cfg.Faults.Spec())
			inject = func(r *rand.Rand, st *ecc.Stored) {
				ecc.FlipRandomStoredBits(r, st, k)
				ambient(r, st)
			}
		}
		spec := campaign.Spec{
			Label:  label,
			Trials: cfg.Trials,
			Seed:   cfg.Seed,
		}
		counts, err := campaign.Run(ctx, spec, opts, func(rng *rand.Rand, n int) [4]int64 {
			return runTrials(scheme, rng, n, inject)
		}, MergeCounts)
		if err != nil {
			return nil, err
		}
		prof.PerK[k] = RatesFromCounts(counts, cfg.Trials)
	}
	return prof, nil
}

// AtBER folds the conditional profile with the binomial flip-count
// distribution at the given inherent bit-error rate. Probability mass at
// k > MaxK is conservatively counted as failure (split evenly between DUE
// and SDC); at the BERs of interest it is negligible.
func (p *ConditionalProfile) AtBER(ber float64) OutcomeRates {
	if ber < 0 || ber > 1 {
		panic(fmt.Sprintf("reliability: invalid BER %v", ber))
	}
	var out OutcomeRates
	tail := 1.0
	for k := 0; k < len(p.PerK); k++ {
		w := binomPMF(p.TotalBits, k, ber)
		out.addScaled(p.PerK[k], w)
		tail -= w
	}
	if tail > 0 {
		out.DUE += tail / 2
		out.SDC += tail / 2
	}
	return out
}

// binomPMF computes C(n,k) p^k (1-p)^(n-k) in log space.
func binomPMF(n, k int, p float64) float64 {
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lg)
}

func lchoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// LogspaceBERs returns n BERs log-spaced over [lo, hi].
func LogspaceBERs(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		panic("reliability: invalid BER range")
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// CoverageResult reports outcome rates for one scheme under one injected
// fault pattern kind.
type CoverageResult struct {
	Scheme string
	Label  string
	Rates  OutcomeRates
	Trials int
}

// CoverageCtx measures outcome rates when the given injection function
// is applied to every trial's image, as one sharded campaign. Injectors
// receive the per-trial RNG and the trial's image, which holds the
// all-zero codeword, and must XOR in a pattern drawn from the RNG alone
// (see runTrials). Shard RNG streams are derived from the seed, the
// (scheme, label) campaign identity and the shard index, so campaigns
// over several labels sharing one seed draw independent randomness per
// label and results do not depend on worker scheduling.
//
// A non-nil env is an ambient fault scenario layered on top of inject: it
// corrupts each trial's image after inject runs, and ",faults=<spec>" is
// appended to the label (a distinct checkpoint namespace). A nil env
// keeps the label, and with it the seed streams and checkpoint identity
// of a run without scenarios.
func CoverageCtx(ctx context.Context, scheme ecc.Scheme, label string, trials int, seed int64, inject func(*rand.Rand, *ecc.Stored), env faults.Scenario, opts campaign.Options) (CoverageResult, error) {
	if env != nil {
		own, ambient := inject, ecc.ScenarioInjector(env)
		inject = func(rng *rand.Rand, st *ecc.Stored) {
			own(rng, st)
			ambient(rng, st)
		}
		label += ",faults=" + env.Spec()
	}
	spec := campaign.Spec{
		Label:  campaign.JoinLabel("coverage", schemes.CampaignID(scheme), label),
		Trials: trials,
		Seed:   seed,
	}
	counts, err := campaign.Run(ctx, spec, opts, func(rng *rand.Rand, n int) [4]int64 {
		return runTrials(scheme, rng, n, inject)
	}, MergeCounts)
	if err != nil {
		return CoverageResult{}, err
	}
	return CoverageResult{
		Scheme: scheme.Name(),
		Label:  label,
		Trials: trials,
		Rates:  RatesFromCounts(counts, trials),
	}, nil
}

// ScenarioCampaignSpec returns the campaign identity of a scenario
// coverage run: the spec ScenarioCoverageCtx executes and the one a
// fleet coordinator shards into leases. Keeping the label derivation in
// one place is what makes remote execution provably byte-identical —
// every shard seed is FNV(label, seed, index), so agreeing on the spec
// means agreeing on every RNG stream.
func ScenarioCampaignSpec(scheme ecc.Scheme, sc faults.Scenario, trials int, seed int64) campaign.Spec {
	return campaign.Spec{
		Label:  campaign.JoinLabel("scenario", schemes.CampaignID(scheme), sc.Spec()),
		Trials: trials,
		Seed:   seed,
	}
}

// ScenarioShardFn returns the shard kernel of a scenario coverage
// campaign: n trials corrupted only by the scenario, tallied by outcome.
// It is the function a fleet worker runs a leased shard through
// (campaign.ExecShard), identical to the one ScenarioCoverageCtx hands
// campaign.Run locally.
func ScenarioShardFn(scheme ecc.Scheme, sc faults.Scenario) func(rng *rand.Rand, trials int) [4]int64 {
	inject := ecc.ScenarioInjector(sc)
	return func(rng *rand.Rand, n int) [4]int64 {
		return runTrials(scheme, rng, n, inject)
	}
}

// ScenarioCoverageCtx measures outcome rates when a registered fault
// scenario is the sole corruption applied to every trial's image, as one
// sharded campaign. The campaign label is
// "scenario/<campaign-id>/<canonical spec>" — the "scenario" prefix
// keeps these campaigns in their own checkpoint namespace, away from
// the frozen "coverage" labels (whose short names, e.g. "pin", collide
// with scenario IDs). The canonical spec in the label means equal specs
// written in different option orders share one checkpoint and one seed
// stream.
func ScenarioCoverageCtx(ctx context.Context, scheme ecc.Scheme, sc faults.Scenario, trials int, seed int64, opts campaign.Options) (CoverageResult, error) {
	spec := ScenarioCampaignSpec(scheme, sc, trials, seed)
	counts, err := campaign.Run(ctx, spec, opts, ScenarioShardFn(scheme, sc), MergeCounts)
	if err != nil {
		return CoverageResult{}, err
	}
	return CoverageResult{
		Scheme: scheme.Name(),
		Label:  sc.Spec(),
		Trials: trials,
		Rates:  RatesFromCounts(counts, trials),
	}, nil
}

// StandardCoverageLabels returns the fault-pattern injectors of table T2,
// in presentation order.
func StandardCoverageLabels() []struct {
	Label  string
	Inject func(*rand.Rand, *ecc.Stored)
} {
	mk := func(kind faults.Kind) func(*rand.Rand, *ecc.Stored) {
		return func(rng *rand.Rand, st *ecc.Stored) {
			ecc.InjectAccessFault(rng, st, kind, -1)
		}
	}
	return []struct {
		Label  string
		Inject func(*rand.Rand, *ecc.Stored)
	}{
		{"1-cell", mk(faults.PermanentCell)},
		{"2-cell", func(rng *rand.Rand, st *ecc.Stored) {
			chip := rng.Intn(len(st.Chips))
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
		}},
		{"pin", mk(faults.PermanentPin)},
		{"column-lane", mk(faults.PermanentColumn)},
		{"word", mk(faults.PermanentWord)},
		{"row", mk(faults.PermanentRow)},
		{"local-wordline", mk(faults.PermanentLocalWordline)},
		{"bank", mk(faults.PermanentBank)},
		{"pin-burst-4", func(rng *rand.Rand, st *ecc.Stored) {
			faults.InjectPinBurst(rng, st.Chips[rng.Intn(st.Org.ChipsPerRank)].Data, 4)
		}},
		{"beat-burst-2", func(rng *rand.Rand, st *ecc.Stored) {
			faults.InjectBeatBurst(rng, st.Chips[rng.Intn(st.Org.ChipsPerRank)].Data, 2)
		}},
	}
}
