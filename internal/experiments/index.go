package experiments

import (
	"context"
	"fmt"
	"strings"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/memsim"
)

// DefaultProfile is the memory profile of the profile columns of F4 and
// F5 and of the F14 traffic experiment, unless a run names another.
const DefaultProfile = "ddr5-4800"

// paperProfile is the memory system of the paper's figures: F4 and F5
// run on it beside Scale.Profile.
const paperProfile = "ddr4-2400"

// CampaignSeed is the seed every Monte-Carlo campaign of the study
// derives its shard streams from, the F1/F2 sweeps' default included.
// pairsim's fleet jobs carry it too, so a fleet F13 matches a local one.
const CampaignSeed int64 = 1

// Scale sizes one run of the study and carries the overrides every
// experiment honors.
type Scale struct {
	Sweep    SweepSettings // the F1/F2 sweeps; F6 takes its trial count
	Coverage int           // trials of each coverage campaign (T2, F7, F9, F10, T5, F13)
	Devices  int           // lifetime population (F3, F12; F8 runs a quarter of it)
	Requests int           // trace length of every timing simulation
	// Schemes, when non-nil, replaces the default scheme set of every
	// set-driven experiment.
	Schemes []ecc.Scheme
	// Faults, when non-nil, is F13's scenario roster. Composed into one
	// scenario it is the ambient fault layer of F1, F2, F1F2, T2 and T2X.
	Faults []faults.Scenario
	// Profile is the memory profile of the profile columns of F4 and F5
	// and of F14.
	Profile *memsim.Profile
	// Sim instruments every timing simulation.
	Sim SimInstrumentation
}

// ScaleFor returns publication scale, or CI scale when quick, on
// DefaultProfile. A positive trials replaces the trial count of every
// sweep point and coverage campaign, devices the lifetime population and
// requests the trace length.
func ScaleFor(quick bool, trials, devices, requests int) Scale {
	s := Scale{
		Sweep:    DefaultSweep(),
		Coverage: 20000,
		Devices:  40000,
		Requests: 20000,
		Profile:  memsim.MustProfile(DefaultProfile),
	}
	if quick {
		s.Sweep = QuickSweep()
		s.Coverage, s.Devices, s.Requests = 2000, 2000, 4000
	}
	if trials > 0 {
		s.Sweep.Trials, s.Coverage = trials, trials
	}
	if devices > 0 {
		s.Devices = devices
	}
	if requests > 0 {
		s.Requests = requests
	}
	return s
}

// set returns the Schemes override when given, else the named default.
func (s Scale) set(def func() []ecc.Scheme) []ecc.Scheme {
	if s.Schemes != nil {
		return s.Schemes
	}
	return def()
}

// scenarios returns the Faults roster when given, else every registered
// scenario at its default options, in registration order.
func (s Scale) scenarios() []faults.Scenario {
	if s.Faults != nil {
		return s.Faults
	}
	var all []faults.Scenario
	for _, id := range faults.ScenarioIDs() {
		all = append(all, faults.MustScenario(id))
	}
	return all
}

// ambient is the Faults roster composed into one scenario (nil without a
// roster).
func (s Scale) ambient() faults.Scenario { return faults.Compose(s.Faults...) }

// Experiment is one table or figure of the study.
type Experiment struct {
	ID    string // lower-case identifier, as pairsim -exp takes it
	Title string // the one-line description pairsim -list prints
	// Variant marks an entry that "all" leaves out: one half of another
	// entry (f1 and f2 are f1f2's two tables) or a rerun of one on the
	// extended scheme set (t2x, f3x).
	Variant bool
	run     func(ctx context.Context, sc Scale, opts campaign.Options) (string, error)
}

// Run renders the experiment at scale sc. Its campaigns run under its id
// as checkpoint namespace, so experiments sharing one checkpoint
// directory never collide (t2 and t2x run the same campaign labels).
func (e Experiment) Run(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
	opts.Namespace = e.ID
	return e.run(ctx, sc, opts)
}

// index declares every experiment once, in presentation order. The
// entries that are not variants, in this order, are what "all" runs.
var index = []Experiment{
	{ID: "t1", Title: "scheme configuration table", run: static(T1Config)},
	{ID: "f1", Title: "reliability (DUE+SDC) vs inherent BER", Variant: true,
		run: sweep((*SweepResult).RenderF1)},
	{ID: "f2", Title: "SDC vs inherent BER", Variant: true,
		run: sweep((*SweepResult).RenderF2)},
	{ID: "f1f2", Title: "F1 and F2 from one set of conditional profiles",
		run: sweep(func(r *SweepResult) string { return r.RenderF1() + "\n" + r.RenderF2() })},
	{ID: "t2", Title: "outcome by fault pattern",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(T2CoverageEnvCtx(ctx, sc.set(CommoditySchemes), sc.Coverage, sc.ambient(), opts))
		}},
	{ID: "t2x", Title: "coverage incl. rank-level schemes (secded, duo-rank)", Variant: true,
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(T2CoverageEnvCtx(ctx, sc.set(ExtendedSchemes), sc.Coverage, sc.ambient(), opts))
		}},
	{ID: "f3", Title: "7-year lifetime failure probability",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F3LifetimeCtx(ctx, sc.set(CommoditySchemes), sc.Devices, opts))
		}},
	{ID: "f3x", Title: "lifetime incl. rank-level schemes", Variant: true,
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F3LifetimeCtx(ctx, sc.set(ExtendedSchemes), sc.Devices, opts))
		}},
	{ID: "f4", Title: "performance, SPEC-like suite (with F4b latency, F4c command mix, F4d profiles)", run: runF4},
	{ID: "f5", Title: "performance vs write ratio", run: runF5},
	{ID: "f6", Title: "PAIR expansion-level sweep",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F6ExpandabilityCtx(ctx, sc.Sweep.Trials, opts))
		}},
	{ID: "f7", Title: "burst-error correction",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F7BurstCtx(ctx, sc.set(CommoditySchemes), sc.Coverage, opts))
		}},
	{ID: "t3", Title: "storage/logic/latency overheads", run: static(T3Complexity)},
	{ID: "t4", Title: "bus energy proxy (DBI interaction)", run: static(T4BusEnergy)},
	{ID: "t5", Title: "PAIR design space across device widths (x4/x8/x16/DDR5)",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(T5WidthsCtx(ctx, sc.Coverage, opts))
		}},
	{ID: "f8", Title: "failure probability vs scrub interval (ablation)",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F8ScrubSweepCtx(ctx, sc.set(CommoditySchemes), sc.Devices/4, opts))
		}},
	{ID: "f9", Title: "PAIR across DRAM generations (DDR4 BL8 vs DDR5 BL16)",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F9DDR5Ctx(ctx, sc.Coverage, opts))
		}},
	{ID: "f10", Title: "pin-sparing (erasure) extension",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F10SparingCtx(ctx, sc.Coverage, opts))
		}},
	{ID: "f11", Title: "performance vs patrol-scrub rate",
		run: func(_ context.Context, sc Scale, _ campaign.Options) (string, error) {
			return rendered(F11ScrubTraffic(sc.Requests, sc.Sim))
		}},
	{ID: "f12", Title: "lifetime with post-package repair (DUE-only repairability)",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F12RepairCtx(ctx, sc.set(CommoditySchemes), sc.Devices, opts))
		}},
	{ID: "f13", Title: "fault-scenario differential table (scenarios x schemes)",
		run: func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
			return rendered(F13ScenariosCtx(ctx, sc.set(CommoditySchemes), sc.scenarios(), sc.Coverage, opts))
		}},
	{ID: "f14", Title: "tail read latency vs offered load (open-loop traffic, -profile)",
		run: func(_ context.Context, sc Scale, _ campaign.Options) (string, error) {
			return rendered(F14TailLatency(sc.set(PerfSchemes), sc.Requests, sc.Profile, sc.Sim))
		}},
}

// static runs a closed-form table, which no scale changes.
func static(build func() *Table) func(context.Context, Scale, campaign.Options) (string, error) {
	return func(context.Context, Scale, campaign.Options) (string, error) { return build().Render(), nil }
}

// sweep runs the F1/F2 sweeps over the commodity set, under the ambient
// fault layer, and renders them with render.
func sweep(render func(*SweepResult) string) func(context.Context, Scale, campaign.Options) (string, error) {
	return func(ctx context.Context, sc Scale, opts campaign.Options) (string, error) {
		r, err := F1F2Ctx(ctx, sc.set(CommoditySchemes), sc.Sweep, sc.ambient(), opts)
		if err != nil {
			return "", err
		}
		return render(r), nil
	}
}

// rendered renders a table built by an experiment function.
func rendered(t *Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// runF4 simulates the SPEC-like suite once on DDR4 and once on
// sc.Profile, unless that is DDR4 too, and renders F4 and its companions
// from those runs: normalized performance, read latency and the command
// mix on DDR4, the geomeans on both, and read latency on sc.Profile.
func runF4(_ context.Context, sc Scale, _ campaign.Options) (string, error) {
	set := sc.set(PerfSchemes)
	ddr4, err := F4Performance(set, sc.Requests, memsim.MustProfile(paperProfile), sc.Sim)
	if err != nil {
		return "", err
	}
	prof := ddr4
	if sc.Profile.Spec() != paperProfile {
		if prof, err = F4Performance(set, sc.Requests, sc.Profile, sc.Sim); err != nil {
			return "", err
		}
	}
	return ddr4.Render() + "\n" + F4Latency(ddr4).Render() + "\n" + F4CommandMix(ddr4).Render() + "\n" +
		F4ProfileGeomeans(ddr4, prof).Render() + "\n" + F4Latency(prof).Render(), nil
}

// runF5 renders the write-ratio sweep on DDR4 and on sc.Profile,
// simulating it once when sc.Profile is DDR4 too.
func runF5(_ context.Context, sc Scale, _ campaign.Options) (string, error) {
	set := sc.set(PerfSchemes)
	t, err := F5WriteSweep(set, sc.Requests, memsim.MustProfile(paperProfile), sc.Sim)
	if err != nil {
		return "", err
	}
	tp := t
	if sc.Profile.Spec() != paperProfile {
		if tp, err = F5WriteSweep(set, sc.Requests, sc.Profile, sc.Sim); err != nil {
			return "", err
		}
	}
	return t.Render() + "\n" + tp.Render(), nil
}

// IDs returns every experiment id, in index order.
func IDs() []string {
	ids := make([]string, len(index))
	for i, e := range index {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the experiment with the given id, matched
// case-insensitively.
func Lookup(id string) (Experiment, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range index {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// Select resolves a comma-separated list of ids, in the order given.
// "all", in any case, stands for every entry that is not a variant, in
// index order.
func Select(list string) ([]Experiment, error) {
	var out []Experiment
	for _, id := range strings.Split(list, ",") {
		if strings.EqualFold(strings.TrimSpace(id), "all") {
			for _, e := range index {
				if !e.Variant {
					out = append(out, e)
				}
			}
			continue
		}
		e, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ListText is pairsim's -list output: one line per experiment, in index
// order.
func ListText() string {
	var b strings.Builder
	for _, e := range index {
		fmt.Fprintf(&b, "%-4s %s\n", strings.ToUpper(e.ID), e.Title)
	}
	return b.String()
}
