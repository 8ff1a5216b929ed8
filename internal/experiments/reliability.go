package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"pair/internal/campaign"
	"pair/internal/core"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/registry"
	"pair/internal/reliability"
	"pair/internal/schemes"
	"pair/internal/stats"
)

// CommoditySchemes returns the x16 evaluation set in presentation order,
// as defined by the registry's "commodity" set.
func CommoditySchemes() []ecc.Scheme {
	return schemes.MustBuildSet("commodity")
}

// T1Config renders the scheme-configuration comparison table. The rows
// come straight from the registry's "t1" set: each entry carries its
// codec/granularity/alignment/correction metadata, and the storage
// overhead is read off the constructed scheme — registering a scheme is
// all it takes to appear here.
func T1Config() *Table {
	t := &Table{
		Title:  "T1: evaluated ECC configurations (commodity DDR4 x16, BL8; SECDED on 9x x8)",
		Header: []string{"scheme", "code", "granularity", "symbol alignment", "corrects", "storage ovh", "bus change"},
	}
	set, err := schemes.SetByID("t1")
	if err != nil {
		panic(err)
	}
	for _, spec := range set.Specs {
		e, s := mustEntry(spec)
		t.AddRow(s.Name(), e.Codec, e.Granularity, e.Alignment, e.Corrects, pct(s.StorageOverhead()), e.BusChange)
	}
	t.Notes = append(t.Notes,
		"XED corrects one *flagged* chip per access via the rank-XOR image; unflagged (aliased) corruption escapes.",
		"PAIR expansion symbols live in spare columns and never cross the DQ pins.")
	return t
}

// mustEntry resolves a spec string to its registry entry plus a built
// scheme, for tables that mix entry metadata with live scheme state.
func mustEntry(spec string) (*schemes.Entry, ecc.Scheme) {
	s := schemes.MustNew(spec)
	// MustNew has parsed the spec and found its entry, so neither fails.
	parsed, _ := registry.Parse(spec)
	e, _ := schemes.Lookup(parsed.ID)
	return e, s
}

// SweepSettings sizes the F1/F2/F6 semi-analytic sweeps.
type SweepSettings struct {
	Trials int     // Monte-Carlo trials per conditioned flip count
	MaxK   int     // largest conditioned flip count
	BERLo  float64 // sweep range
	BERHi  float64
	Points int
	Seed   int64
}

// DefaultSweep returns publication-scale settings.
func DefaultSweep() SweepSettings {
	return SweepSettings{Trials: 20000, MaxK: 12, BERLo: 1e-8, BERHi: 1e-4, Points: 9, Seed: CampaignSeed}
}

// QuickSweep returns bench/CI-scale settings.
func QuickSweep() SweepSettings {
	return SweepSettings{Trials: 2500, MaxK: 8, BERLo: 1e-8, BERHi: 1e-4, Points: 5, Seed: CampaignSeed}
}

// SweepResult holds the F1/F2 series for a scheme set.
type SweepResult struct {
	BERs    []float64
	Schemes []string
	Fail    [][]float64 // [scheme][ber] DUE+SDC probability per line access
	SDC     [][]float64 // [scheme][ber]
}

// F1F2Ctx runs the inherent-fault reliability sweep over the given
// schemes as cancellable, checkpointable campaigns (one per scheme per
// conditioned flip count). A non-nil env layers an ambient fault
// scenario over every sweep trial; nil reproduces the frozen default
// sweeps.
func F1F2Ctx(ctx context.Context, schemes []ecc.Scheme, st SweepSettings, env faults.Scenario, opts campaign.Options) (*SweepResult, error) {
	bers := reliability.LogspaceBERs(st.BERLo, st.BERHi, st.Points)
	res := &SweepResult{BERs: bers}
	for _, s := range schemes {
		prof, err := reliability.BuildProfileCtx(ctx, s, reliability.SweepConfig{MaxK: st.MaxK, Trials: st.Trials, Seed: st.Seed, Faults: env}, opts)
		if err != nil {
			return nil, err
		}
		res.Schemes = append(res.Schemes, s.Name())
		fail := make([]float64, len(bers))
		sdc := make([]float64, len(bers))
		for i, b := range bers {
			r := prof.AtBER(b)
			fail[i] = r.Fail()
			sdc[i] = r.SDC
		}
		res.Fail = append(res.Fail, fail)
		res.SDC = append(res.SDC, sdc)
	}
	return res, nil
}

// RenderF1 renders the uncorrectable/failure probability series.
func (r *SweepResult) RenderF1() string {
	t := &Table{
		Title:  "F1: P(DUE or SDC) per 64B line access vs inherent weak-cell BER",
		Header: append([]string{"BER"}, r.Schemes...),
	}
	for i, b := range r.BERs {
		row := []string{sci(b)}
		for s := range r.Schemes {
			row = append(row, sci(r.Fail[s][i]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, r.headline()...)
	return t.Render()
}

// RenderF2 renders the SDC-only series.
func (r *SweepResult) RenderF2() string {
	t := &Table{
		Title:  "F2: P(SDC, silent corruption) per 64B line access vs inherent weak-cell BER",
		Header: append([]string{"BER"}, r.Schemes...),
	}
	for i, b := range r.BERs {
		row := []string{sci(b)}
		for s := range r.Schemes {
			row = append(row, sci(r.SDC[s][i]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// headline extracts the abstract's comparison ratios from the sweep.
func (r *SweepResult) headline() []string {
	idx := map[string]int{}
	for i, n := range r.Schemes {
		idx[n] = i
	}
	pairIdx, okP := idx["pair"]
	var notes []string
	if !okP {
		return nil
	}
	for _, rival := range []string{"xed", "duo"} {
		ri, ok := idx[rival]
		if !ok {
			continue
		}
		best := 0.0
		at := 0.0
		for i := range r.BERs {
			ratio := stats.Ratio(r.Fail[ri][i], r.Fail[pairIdx][i])
			if ratio > best {
				best = ratio
				at = r.BERs[i]
			}
		}
		notes = append(notes, fmt.Sprintf("max reliability ratio %s/pair = %.1e (at BER %.0e)", rival, best, at))
	}
	return notes
}

// T2CoverageEnvCtx runs the fault-type coverage table over the scheme
// set as cancellable, checkpointable campaigns (one per scheme per fault
// pattern), with an optional ambient fault scenario corrupting every
// trial on top of each row's pattern. A nil env reproduces the frozen
// default table (same campaign labels and checkpoints); a non-nil env
// tags the title with its canonical spec.
func T2CoverageEnvCtx(ctx context.Context, schemes []ecc.Scheme, trials int, env faults.Scenario, opts campaign.Options) (*Table, error) {
	title := fmt.Sprintf("T2: outcome by injected fault pattern (%d trials each; CE/DUE/SDC shares)", trials)
	if env != nil {
		title = fmt.Sprintf("T2: outcome by injected fault pattern under ambient %s (%d trials each; CE/DUE/SDC shares)", env.Spec(), trials)
	}
	t := &Table{
		Title:  title,
		Header: []string{"pattern"},
	}
	for _, s := range schemes {
		t.Header = append(t.Header, s.Name())
	}
	for _, l := range reliability.StandardCoverageLabels() {
		row := []string{l.Label}
		for _, s := range schemes {
			r, err := reliability.CoverageCtx(ctx, s, l.Label, trials, CampaignSeed, l.Inject, env, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f", r.Rates.CE*100, r.Rates.DUE*100, r.Rates.SDC*100))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "cells are CE/DUE/SDC percentages; 100/0/0 = always corrected")
	return t, nil
}

// F3LifetimeCtx runs the lifetime Monte-Carlo for each scheme as
// cancellable, checkpointable campaigns (one per scheme) and renders the
// 7-year failure and SDC probabilities plus the yearly CDF.
func F3LifetimeCtx(ctx context.Context, schemes []ecc.Scheme, devices int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("F3: 7-year mission failure probability, field FIT rates, %d ranks, 24h scrub", devices),
		Header: []string{"scheme", "P(fail)", "P(SDC)", "P(DUE)", "yearly CDF"},
	}
	for _, s := range schemes {
		r, err := reliability.RunLifetimeCtx(ctx, reliability.LifetimeConfig{
			Scheme:  s,
			Devices: devices,
			Seed:    CampaignSeed,
		}, opts)
		if err != nil {
			return nil, err
		}
		cdf := ""
		for i, c := range r.FailYearCDF {
			if i > 0 {
				cdf += " "
			}
			cdf += sci(c)
		}
		t.AddRow(s.Name(), sci(r.FailProb()), sci(r.SDCProb()),
			sci(float64(r.DUEFailures)/float64(r.Devices)), cdf)
	}
	t.Notes = append(t.Notes,
		"operational (field-FIT) faults; inherent weak-cell hazards are the F1/F2 sweeps",
		"XED's rank-XOR reconstructs whole-chip faults, so its DUE column benefits here; its SDC column shows the aliasing hazard")
	return t, nil
}

// F6ExpandabilityCtx sweeps the PAIR expansion level at a fixed adverse
// BER as cancellable, checkpointable campaigns. Expansion levels 1..4 all
// report the scheme name "pair", so each level runs under an exp=<n>
// campaign sublabel.
func F6ExpandabilityCtx(ctx context.Context, trials int, opts campaign.Options) (*Table, error) {
	const ber = 1e-5
	t := &Table{
		Title:  fmt.Sprintf("F6: PAIR reliability vs expansion level (inherent BER %.0e)", ber),
		Header: []string{"config", "codeword", "t", "storage ovh", "P(fail)", "P(SDC)"},
	}
	for exp := 0; exp <= 4; exp++ {
		s := schemes.MustNew(fmt.Sprintf("pair:exp=%d", exp)).(*core.Scheme)
		prof, err := reliability.BuildProfileCtx(ctx, s, reliability.SweepConfig{MaxK: 8, Trials: trials, Seed: CampaignSeed},
			opts.Sublabel(fmt.Sprintf("exp=%d", exp)))
		if err != nil {
			return nil, err
		}
		r := prof.AtBER(ber)
		t.AddRow(
			fmt.Sprintf("base+%d", exp),
			fmt.Sprintf("RS(%d,16)", s.CodewordLength()),
			fmt.Sprintf("%d", s.T()),
			pct(s.StorageOverhead()),
			sci(r.Fail()),
			sci(r.SDC),
		)
	}
	t.Notes = append(t.Notes, "each +1 expansion symbol is appended to spare columns without rewriting stored data")
	return t, nil
}

// F7BurstCtx measures burst-error correction vs burst length, along pins
// (PAIR's aligned axis) and across pins (the crosstalk axis), as
// cancellable, checkpointable campaigns; each burst length runs under a
// b=<n> campaign sublabel since the coverage labels repeat across
// lengths.
func F7BurstCtx(ctx context.Context, schemes []ecc.Scheme, trials int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  "F7: failure rate under burst errors (along-pin b@1pin / across-pin b@1beat)",
		Header: []string{"burst len"},
	}
	for _, s := range schemes {
		t.Header = append(t.Header, s.Name())
	}
	for _, b := range []int{2, 4, 8} {
		row := []string{fmt.Sprintf("%d", b)}
		bOpts := opts.Sublabel(fmt.Sprintf("b=%d", b))
		for _, s := range schemes {
			blen := b
			along, err := reliability.CoverageCtx(ctx, s, "pin-burst", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
				faults.InjectPinBurst(rng, st.Chips[rng.Intn(st.Org.ChipsPerRank)].Data, blen)
			}, nil, bOpts)
			if err != nil {
				return nil, err
			}
			across, err := reliability.CoverageCtx(ctx, s, "beat-burst", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
				faults.InjectBeatBurst(rng, st.Chips[rng.Intn(st.Org.ChipsPerRank)].Data, blen)
			}, nil, bOpts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s / %s", sci(along.Rates.Fail()), sci(across.Rates.Fail())))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "PAIR corrects every along-pin burst by construction; across-pin bursts are its documented trade-off")
	return t, nil
}
