package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// Monte-Carlo sizing: pairsim -quick's scale (2000 coverage trials,
// 2500 sweep trials per k) with the publication sweep's k range. One
// pass is a few tenths of a second on two cores, so a run takes the
// median over many passes.
const (
	scenarioTrials = 2000
	sweepTrials    = 2500
	sweepMaxK      = 12
	// mcWorkers is the campaign worker count, sized for two cores.
	mcWorkers = 2
	// trialChunk matches reliability's slab loop: one DecodeBatchInto
	// per 64 trials.
	trialChunk = 64
)

var errNoBatch = errors.New("scheme has no batch codec")

// mcCell is one Monte-Carlo campaign of a pass.
type mcCell struct {
	scheme int           // index into mcBase.schemes
	spec   campaign.Spec // label (the output key), trials and seed
	inject func(*rand.Rand, *ecc.Stored)
}

// mcBase is what both Monte-Carlo workloads share: the commodity
// schemes, the cells, and the replay of reliability's trial loop.
type mcBase struct {
	schemes []ecc.Scheme
	cells   []mcCell
	trials  float64 // per pass
	// What the last replay leaves for layers.
	clean     int64 // clean claims
	replayCPU time.Duration
}

func buildCommodity() ([]ecc.Scheme, error) {
	set, err := schemes.SetByID("commodity")
	if err != nil {
		return nil, err
	}
	if fmt.Sprint(set.Specs) != fmt.Sprint(commodity) {
		return nil, fmt.Errorf("commodity set is %v, the benchmark's metrics name %v", set.Specs, commodity)
	}
	return schemes.Build(set.Specs)
}

func (m *mcBase) close() error { return nil }

// mcScenarios is the F13/T2 coverage grid: every commodity scheme
// against every registered fault scenario at its default options.
type mcScenarios struct {
	mcBase
	seed      int64
	scenarios []faults.Scenario
}

func newMCScenarios(cfg config, _ io.Writer) (instance, error) {
	sch, err := buildCommodity()
	if err != nil {
		return nil, err
	}
	w := &mcScenarios{mcBase: mcBase{schemes: sch}, seed: cfg.seed}
	for _, id := range faults.ScenarioIDs() {
		sc, err := faults.NewScenario(id)
		if err != nil {
			return nil, err
		}
		w.scenarios = append(w.scenarios, sc)
		for si, s := range sch {
			w.cells = append(w.cells, mcCell{
				scheme: si,
				spec:   reliability.ScenarioCampaignSpec(s, sc, scenarioTrials, cfg.seed),
				inject: ecc.ScenarioInjector(sc),
			})
		}
	}
	w.trials = float64(len(w.cells) * scenarioTrials)
	return w, nil
}

func (w *mcScenarios) pass() (passResult, error) {
	out := make(map[string]string, len(w.cells))
	opts := campaign.Options{Workers: mcWorkers}
	for i, c := range w.cells {
		sc := w.scenarios[i/len(w.schemes)] // cells run scenario-outer, scheme-inner
		r, err := reliability.ScenarioCoverageCtx(context.Background(), w.schemes[c.scheme], sc, scenarioTrials, w.seed, opts)
		if err != nil {
			return passResult{}, err
		}
		out[c.spec.Label] = mustJSON(countsFromRates(r.Rates, scenarioTrials))
	}
	return passResult{out: out, units: w.trials, weight: 1}, nil
}

// mcSweep is the F1F2 conditional-BER profile: every commodity scheme
// with k = 1..12 random stored-bit flips, one BuildProfileCtx each.
type mcSweep struct {
	mcBase
	seed int64
}

func newMCSweep(cfg config, _ io.Writer) (instance, error) {
	sch, err := buildCommodity()
	if err != nil {
		return nil, err
	}
	// SweepConfig runs a zero seed as seed 1; the replay must agree.
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	w := &mcSweep{mcBase: mcBase{schemes: sch}, seed: seed}
	for si, s := range sch {
		for k := 1; k <= sweepMaxK; k++ {
			k := k
			w.cells = append(w.cells, mcCell{
				scheme: si,
				spec: campaign.Spec{
					Label:  campaign.JoinLabel("profile", schemes.CampaignID(s), fmt.Sprintf("k=%d", k)),
					Trials: sweepTrials,
					Seed:   seed,
				},
				inject: func(r *rand.Rand, st *ecc.Stored) { ecc.FlipRandomStoredBits(r, st, k) },
			})
		}
	}
	w.trials = float64(len(w.cells) * sweepTrials)
	return w, nil
}

func (w *mcSweep) pass() (passResult, error) {
	out := make(map[string]string, len(w.cells))
	opts := campaign.Options{Workers: mcWorkers}
	cfg := reliability.SweepConfig{MaxK: sweepMaxK, Trials: sweepTrials, Seed: w.seed}
	for si, s := range w.schemes {
		prof, err := reliability.BuildProfileCtx(context.Background(), s, cfg, opts)
		if err != nil {
			return passResult{}, err
		}
		for k := 1; k <= sweepMaxK; k++ {
			c := w.cells[si*sweepMaxK+k-1]
			out[c.spec.Label] = mustJSON(countsFromRates(prof.PerK[k], sweepTrials))
		}
	}
	return passResult{out: out, units: w.trials, weight: 1}, nil
}

// countsFromRates recovers a campaign's outcome counts from the rates
// the public API returns (each rate is count/trials, exact in float64).
func countsFromRates(r reliability.OutcomeRates, trials int) [4]int64 {
	n := float64(trials)
	return [4]int64{
		int64(math.Round(r.OK * n)),
		int64(math.Round(r.CE * n)),
		int64(math.Round(r.DUE * n)),
		int64(math.Round(r.SDC * n)),
	}
}

// shardOut is one replayed shard: outcome counts and clean claims.
type shardOut struct {
	counts [4]int64
	clean  int64
}

func mergeShardOut(agg *shardOut, s shardOut) {
	reliability.MergeCounts(&agg.counts, s.counts)
	agg.clean += s.clean
}

// replay runs every cell through campaign.Run with the benchmark's own
// shard function, under the same labels and seeds as the untraced
// pass, so its counts must match byte for byte.
func (m *mcBase) replay(tr *tracer, g *gate) error {
	out := make(map[string]string, len(m.cells))
	m.clean = 0
	tr.reserve(int(m.trials)*4 + 4*len(m.cells))
	start := cpuTime()
	for ci, c := range m.cells {
		bs, ok := m.schemes[c.scheme].(ecc.BatchScheme)
		if !ok {
			return fmt.Errorf("%s: %w", c.spec.Label, errNoBatch)
		}
		cell := tr.open(spanCell, -1, int32(ci))
		agg, err := campaign.Run(context.Background(), c.spec, campaign.Options{Workers: mcWorkers},
			replayShard(bs, c.inject, tr, cell, int32(ci)), mergeShardOut)
		tr.close(cell)
		if err != nil {
			return err
		}
		out[c.spec.Label] = mustJSON(agg.counts)
		m.clean += agg.clean
	}
	m.replayCPU = cpuTime() - start
	g.compare("replay", out, 1)
	return nil
}

// replayShard returns a campaign shard function that repeats
// reliability's slab trial loop from public calls only: per trial
// rng.Read, EncodeBatchInto at width 1 and the injector, then per
// 64-trial chunk DecodeBatchInto and ecc.Classify. The RNG draw order
// is the engine's, so the counts are the engine's. With a tracer, each
// stage becomes a span under one span per shard.
func replayShard(bs ecc.BatchScheme, inject func(*rand.Rand, *ecc.Stored), tr *tracer, parent, op int32) func(*rand.Rand, int) shardOut {
	return func(rng *rand.Rand, n int) shardOut {
		width := min(trialChunk, n)
		// One root span, three stages per trial, two per chunk.
		b := tr.batch(spanShard, parent, op, 1+3*n+2*((n+width-1)/width))
		defer b.finish()
		lineBytes := bs.Org().LineBytes()
		lines := make([][]byte, width)
		decoded := make([][]byte, width)
		sts := make([]*ecc.Stored, width)
		claims := make([]ecc.Claim, width)
		for i := range lines {
			lines[i] = make([]byte, lineBytes)
			decoded[i] = make([]byte, lineBytes)
			sts[i] = bs.NewStored()
		}
		b.skip()
		var res shardOut
		for done := 0; done < n; done += width {
			m := min(width, n-done)
			for i := 0; i < m; i++ {
				rng.Read(lines[i])
				b.mark(spanRNG)
				bs.EncodeBatchInto(sts[i:i+1], lines[i:i+1])
				b.mark(spanEncode)
				inject(rng, sts[i])
				b.mark(spanInject)
			}
			bs.DecodeBatchInto(decoded[:m], sts[:m], claims[:m])
			b.mark(spanDecode)
			for i := 0; i < m; i++ {
				res.counts[ecc.Classify(lines[i], decoded[i], claims[i])]++
				if claims[i] == ecc.ClaimClean {
					res.clean++
				}
			}
			b.mark(spanClassify)
		}
		return res
	}
}

// mcStages are the trial-loop stages, in loop order.
var mcStages = []struct {
	span   uint8
	metric string
}{
	{spanRNG, "reliability.rng_ns"},
	{spanEncode, "ecc.encode_ns"},
	{spanInject, "faults.inject_ns"},
	{spanDecode, "ecc.decode_ns"},
	{spanClassify, "ecc.classify_ns"},
}

// layers splits the traced trial time into stage self-times per trial,
// overall and per scheme for encode and decode, and checks that the
// stages account for the traced time per trial.
func (m *mcBase) layers(tr *tracer, cpuPerTrial float64) (map[string]float64, error) {
	self := tr.selfTimes()
	dur := tr.durations()
	total := m.trials
	trialsOf := make([]float64, len(m.schemes))
	for _, c := range m.cells {
		trialsOf[c.scheme] += float64(c.spec.Trials)
	}
	perScheme := make([][numSpanNames]int64, len(m.schemes))
	for i, s := range tr.spans {
		if s.name != spanShard && s.name != spanCell {
			perScheme[m.cells[s.op].scheme][s.name] += self[i]
		}
	}
	bySelf := tr.sumBy(self)
	byDur := tr.sumBy(dur)
	vals := map[string]float64{}
	var stageSum int64
	for _, st := range mcStages {
		stageSum += bySelf[st.span]
		vals[st.metric] = float64(bySelf[st.span]) / total
	}
	for si, name := range commodity {
		vals["ecc.encode_ns."+name] = float64(perScheme[si][spanEncode]) / trialsOf[si]
		vals["ecc.decode_ns."+name] = float64(perScheme[si][spanDecode]) / trialsOf[si]
	}
	vals["ecc.clean_frac"] = float64(m.clean) / total
	vals["campaign.busy_frac"] = float64(byDur[spanShard]) / (mcWorkers * float64(byDur[spanCell]))
	vals["bench.trace_overhead_frac"] = float64(m.replayCPU)/total/cpuPerTrial - 1
	// The stages are contiguous inside each shard span; what they leave
	// out is the shard's buffer set-up, which must stay small.
	if closed := float64(stageSum) / float64(byDur[spanShard]); closed < 0.95 || closed > 1 {
		return vals, fmt.Errorf("stage self-times cover %.3f of the traced shard time, want 0.95..1", closed)
	}
	return vals, nil
}
