package reliability

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/schemes"
)

// HoursPerYear is the mean Gregorian year in hours.
const HoursPerYear = 8766.0

// LifetimeConfig parameterizes the device-lifetime Monte-Carlo (figure
// F3): a population of ranks accumulates operational faults at field FIT
// rates over a mission time; a rank fails when some access pattern
// defeats its ECC scheme.
type LifetimeConfig struct {
	Scheme         ecc.Scheme
	Years          float64
	ScrubHours     float64 // transient faults survive one scrub interval
	Devices        int     // population size (Monte-Carlo trials)
	PatternSamples int     // decode samples per fault/pair pattern
	Seed           int64
	FITs           []faults.FITEntry
	// RepairBudget, when positive, models post-package repair (PPR): a
	// fault whose first failure manifests as a *detected* error (DUE) is
	// repaired — remapped to spare resources — consuming one budget unit
	// instead of failing the device. Silent corruption (SDC) can never
	// trigger repair; that asymmetry is why a scheme's DUE/SDC split
	// matters beyond raw failure counts (experiment F12).
	RepairBudget int
}

func (c *LifetimeConfig) setDefaults() {
	if c.Years == 0 {
		c.Years = 7
	}
	if c.ScrubHours == 0 {
		c.ScrubHours = 24
	}
	if c.Devices == 0 {
		c.Devices = 20000
	}
	if c.PatternSamples == 0 {
		c.PatternSamples = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FITs == nil {
		c.FITs = faults.DefaultFITTable()
	}
}

// LifetimeResult aggregates the population outcome.
type LifetimeResult struct {
	Scheme       string
	Devices      int
	Failed       int // devices with any DUE or SDC within the mission
	SDCFailures  int
	DUEFailures  int
	Repairs      int       // PPR events across the population (RepairBudget > 0)
	FailYearCDF  []float64 // cumulative failure probability at end of year i+1
	MissionYears float64
}

// FailProb returns the mission failure probability.
func (r LifetimeResult) FailProb() float64 {
	if r.Devices == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Devices)
}

// SDCProb returns the mission SDC probability.
func (r LifetimeResult) SDCProb() float64 {
	if r.Devices == 0 {
		return 0
	}
	return float64(r.SDCFailures) / float64(r.Devices)
}

// patternKey caches pattern-failure estimates: single faults by kind,
// pairs by kind pair + same-chip flag.
type patternKey struct {
	a, b     faults.Kind
	pair     bool
	sameChip bool
}

type patternStats struct {
	fail float64 // P(DUE or SDC) per affected access
	sdc  float64 // P(SDC) per affected access
}

// lifetimeEngine holds shared state for one population run.
type lifetimeEngine struct {
	cfg     LifetimeConfig
	coupled bool // decode couples chips (rank-level correction)

	mu    sync.Mutex
	cache map[patternKey]patternStats
}

// schemeCouplesChips reports whether two faults in different chips can
// interact inside one decode. Per-chip codeword schemes (IECC, DUO, PAIR)
// are uncoupled; rank-level schemes are coupled.
func schemeCouplesChips(s ecc.Scheme) bool {
	switch s.Name() {
	case "xed", "secded", "none", "duo-rank":
		return true
	default:
		return false
	}
}

// lifetimeShard is one shard's population outcome. It is the unit the
// campaign checkpoints, so it carries everything the final aggregation
// needs and nothing per-device.
type lifetimeShard struct {
	Failed  int   `json:"failed"`
	SDC     int   `json:"sdc"`
	DUE     int   `json:"due"`
	Repairs int   `json:"repairs"`
	PerYear []int `json:"per_year"` // failures whose first failure fell in year i
}

// mergeLifetimeShards folds one shard into the aggregate.
func mergeLifetimeShards(agg *lifetimeShard, s lifetimeShard) {
	agg.Failed += s.Failed
	agg.SDC += s.SDC
	agg.DUE += s.DUE
	agg.Repairs += s.Repairs
	if agg.PerYear == nil {
		agg.PerYear = make([]int, len(s.PerYear))
	}
	for i, v := range s.PerYear {
		agg.PerYear[i] += v
	}
}

// RunLifetimeCtx executes the lifetime Monte-Carlo as one sharded
// campaign over the device population. Each shard simulates its slice of
// devices with a shard-derived RNG stream, so the population outcome is
// bit-identical regardless of worker count or interruption point; the
// pattern-failure cache is shared across shards and is itself seeded per
// pattern, so cache warm-up order cannot change results.
func RunLifetimeCtx(ctx context.Context, cfg LifetimeConfig, opts campaign.Options) (LifetimeResult, error) {
	cfg.setDefaults()
	eng := &lifetimeEngine{
		cfg:     cfg,
		coupled: schemeCouplesChips(cfg.Scheme),
		cache:   make(map[patternKey]patternStats),
	}
	nYears := int(math.Ceil(cfg.Years))
	spec := campaign.Spec{
		Label:  campaign.JoinLabel("lifetime", schemes.CampaignID(cfg.Scheme)),
		Trials: cfg.Devices,
		Seed:   cfg.Seed,
	}
	agg, err := campaign.Run(ctx, spec, opts, func(rng *rand.Rand, devices int) lifetimeShard {
		sh := lifetimeShard{PerYear: make([]int, nYears)}
		for d := 0; d < devices; d++ {
			failed, sdc, when, repairs := eng.simulateDevice(rng)
			sh.Repairs += repairs
			if !failed {
				continue
			}
			sh.Failed++
			if sdc {
				sh.SDC++
			} else {
				sh.DUE++
			}
			yr := int(when / HoursPerYear)
			if yr >= nYears {
				yr = nYears - 1
			}
			sh.PerYear[yr]++
		}
		return sh
	}, mergeLifetimeShards)
	if err != nil {
		return LifetimeResult{}, err
	}

	res := LifetimeResult{
		Scheme:       cfg.Scheme.Name(),
		Devices:      cfg.Devices,
		Failed:       agg.Failed,
		SDCFailures:  agg.SDC,
		DUEFailures:  agg.DUE,
		Repairs:      agg.Repairs,
		FailYearCDF:  make([]float64, nYears),
		MissionYears: cfg.Years,
	}
	cum := 0
	for i := 0; i < nYears; i++ {
		if agg.PerYear != nil {
			cum += agg.PerYear[i]
		}
		res.FailYearCDF[i] = float64(cum) / float64(cfg.Devices)
	}
	return res, nil
}

// simulateDevice runs one rank through the mission; it returns whether it
// failed, whether the failure was silent, the failure time in hours, and
// how many PPR events it consumed.
func (e *lifetimeEngine) simulateDevice(rng *rand.Rand) (failed, sdc bool, when float64, repairs int) {
	cfg := e.cfg
	org := cfg.Scheme.Org()
	hours := cfg.Years * HoursPerYear
	chips := float64(org.TotalChips())

	type arrival struct {
		t float64
		f faults.Fault
	}
	var arrivals []arrival
	for _, fit := range cfg.FITs {
		mean := fit.Rate * 1e-9 * hours * chips
		n := poisson(rng, mean)
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, arrival{
				t: rng.Float64() * hours,
				f: faults.Sample(rng, fit.Kind, org),
			})
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].t < arrivals[j].t })

	type active struct {
		f      faults.Fault
		expiry float64 // +Inf for permanents
	}
	budget := cfg.RepairBudget
	// fail handles one manifested failure: silent ones always kill the
	// device; detected ones are absorbed by PPR while budget lasts.
	tryRepair := func(isSDC bool) bool {
		if isSDC || budget <= 0 {
			return false
		}
		budget--
		repairs++
		return true
	}

	var act []active
	for _, a := range arrivals {
		// Purge expired transients.
		live := act[:0]
		for _, x := range act {
			if x.expiry > a.t {
				live = append(live, x)
			}
		}
		act = live

		// Single-fault hazard.
		st := e.patternStats(a.f, nil)
		if fail, isSDC := bernoulliFail(rng, st, a.f.FootprintAccesses(org)); fail {
			if !tryRepair(isSDC) {
				return true, isSDC, a.t, repairs
			}
			continue // fault repaired away; do not register it as active
		}
		// Pairwise hazards with currently active faults.
		repaired := false
		for _, x := range act {
			var overlap int64
			sameChip := x.f.Chip == a.f.Chip
			if sameChip {
				overlap = a.f.OverlapAccesses(x.f, org)
			} else if e.coupled {
				overlap = a.f.SameRankOverlap(x.f, org)
			}
			if overlap == 0 {
				continue
			}
			ps := e.patternStats(a.f, &x.f)
			if fail, isSDC := bernoulliFail(rng, ps, overlap); fail {
				if !tryRepair(isSDC) {
					return true, isSDC, a.t, repairs
				}
				repaired = true
				break
			}
		}
		if repaired {
			continue
		}

		expiry := math.Inf(1)
		if a.f.IsTransient() {
			expiry = a.t + cfg.ScrubHours
		}
		act = append(act, active{f: a.f, expiry: expiry})
	}
	return false, false, 0, repairs
}

// bernoulliFail draws whether any of `accesses` affected accesses fails
// given the per-access pattern stats, and if so whether the failure is
// silent.
func bernoulliFail(rng *rand.Rand, ps patternStats, accesses int64) (fail, sdc bool) {
	if ps.fail <= 0 || accesses <= 0 {
		return false, false
	}
	// P(any fails) = 1 - (1-q)^A, computed stably.
	p := -math.Expm1(float64(accesses) * math.Log1p(-ps.fail))
	if rng.Float64() >= p {
		return false, false
	}
	return true, rng.Float64() < ps.sdc/ps.fail
}

// patternStats estimates (with caching) the per-access failure
// probability of a single fault (g == nil) or a co-located pair.
func (e *lifetimeEngine) patternStats(f faults.Fault, g *faults.Fault) patternStats {
	key := patternKey{a: f.Kind}
	if g != nil {
		key.pair = true
		key.b = g.Kind
		key.sameChip = f.Chip == g.Chip
		if key.b < key.a {
			key.a, key.b = key.b, key.a
		}
	}
	e.mu.Lock()
	if st, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return st
	}
	e.mu.Unlock()

	st := e.measurePattern(key)
	e.mu.Lock()
	e.cache[key] = st
	e.mu.Unlock()
	return st
}

// measurePattern Monte-Carlo-estimates the per-access outcome of a fault
// kind (or pair of kinds). Chip indices are resampled per trial so lane
// positions and chip placement are averaged over.
func (e *lifetimeEngine) measurePattern(key patternKey) patternStats {
	cfg := e.cfg
	org := cfg.Scheme.Org()
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(key.a)<<16 ^ int64(key.b)<<24 ^ boolBit(key.pair)<<40 ^ boolBit(key.sameChip)<<41))
	counts := runTrials(cfg.Scheme, rng, cfg.PatternSamples, func(rng *rand.Rand, st *ecc.Stored) {
		fa := faults.Sample(rng, key.a, org)
		ecc.ApplyDeviceFault(rng, st, fa)
		if key.pair {
			fb := faults.Sample(rng, key.b, org)
			if key.sameChip {
				fb.Chip = fa.Chip
			} else {
				for fb.Chip == fa.Chip {
					fb.Chip = rng.Intn(org.ChipsPerRank)
				}
			}
			ecc.ApplyDeviceFault(rng, st, fb)
		}
	})
	n := float64(cfg.PatternSamples)
	fail := float64(counts[ecc.OutcomeDUE] + counts[ecc.OutcomeSDC])
	return patternStats{fail: fail / n, sdc: float64(counts[ecc.OutcomeSDC]) / n}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// poisson draws from Poisson(mean) by inversion for small means and
// normal approximation for large ones (means here are < 100).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(rng.NormFloat64()*math.Sqrt(mean) + mean))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
