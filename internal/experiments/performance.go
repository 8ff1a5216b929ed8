package experiments

import (
	"fmt"
	"io"

	"pair/internal/ecc"
	"pair/internal/hamming"
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/schemes"
	"pair/internal/stats"
	"pair/internal/trace"
)

// PerfSchemes returns the schemes of the performance comparison (figure
// F4): baseline plus the three architectures the abstract compares, as
// defined by the registry's "perf" set.
func PerfSchemes() []ecc.Scheme {
	return schemes.MustBuildSet("perf")
}

// SimInstrumentation configures observers attached to every timing-
// simulator run of a performance experiment (the -check and -cmdtrace
// modes of cmd/pairsim). The zero value attaches none.
type SimInstrumentation struct {
	// Check attaches an independent JEDEC protocol checker to each run;
	// any violation fails the experiment with command context.
	Check bool
	// CmdTrace, when non-nil, streams every run's DRAM command trace to
	// the writer, each run prefixed by a "# sim <label>" header.
	CmdTrace io.Writer
}

// runSim executes one timing simulation with the instrumentation
// attached.
func (si SimInstrumentation) runSim(label string, cfg memsim.Config, wl trace.Workload) (memsim.Result, error) {
	var chk *check.Checker
	var obs []memsim.Observer
	if si.Check {
		if cfg.Profile != nil {
			chk = check.ForProfile(cfg.Profile)
		} else {
			chk = check.New(cfg.Timing)
		}
		obs = append(obs, chk)
	}
	if si.CmdTrace != nil {
		fmt.Fprintf(si.CmdTrace, "# sim %s\n", label)
		obs = append(obs, &check.Tracer{W: si.CmdTrace})
	}
	cfg.Observer = memsim.MultiObserver(obs...)
	res, err := memsim.Run(cfg, wl)
	if err != nil {
		return res, fmt.Errorf("%s: %w", label, err)
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			return res, fmt.Errorf("%s: %w", label, err)
		}
	}
	return res, nil
}

// PerfResult holds normalized performance per workload per scheme.
type PerfResult struct {
	Workloads []string
	Schemes   []string
	// Normalized[w][s] = cycles(none) / cycles(scheme): 1.0 = baseline
	// speed, higher is better.
	Normalized [][]float64
	GeoMean    []float64
}

// F4Performance runs the SPEC-like suite through the timing simulator
// under every scheme's cost model, on the memory profile prof (nil = the
// DDR4 default).
func F4Performance(schemes []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*PerfResult, error) {
	return perfOnProfile(schemes, trace.SPECLike(requests), prof, inst)
}

// simConfig returns the simulator configuration of one experiment run:
// the DDR4 default when prof is nil (the legacy golden-pinned path), the
// profile's otherwise.
func simConfig(prof *memsim.Profile) memsim.Config {
	if prof == nil {
		return memsim.DefaultConfig()
	}
	return prof.Config()
}

// simLabel prefixes a run label with the profile spec so -cmdtrace
// headers and error messages identify the memory generation.
func simLabel(prof *memsim.Profile, label string) string {
	if prof == nil {
		return label
	}
	return prof.Spec() + "/" + label
}

func perfOnProfile(schemes []ecc.Scheme, suite []trace.Workload, prof *memsim.Profile, inst SimInstrumentation) (*PerfResult, error) {
	res := &PerfResult{}
	for _, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name())
	}
	baseline := make([]uint64, len(suite))
	for wi, wl := range suite {
		res.Workloads = append(res.Workloads, wl.Name)
		r, err := inst.runSim(simLabel(prof, "baseline/"+wl.Name), simConfig(prof), wl)
		if err != nil {
			return nil, err
		}
		baseline[wi] = r.Cycles
	}
	res.Normalized = make([][]float64, len(suite))
	for wi, wl := range suite {
		res.Normalized[wi] = make([]float64, len(schemes))
		for si, s := range schemes {
			cost := s.Cost()
			cycles := baseline[wi]
			// A zero cost model is bit-identical to the baseline run —
			// reuse it instead of simulating the workload a second time.
			if cost != (ecc.AccessCost{}) {
				cfg := simConfig(prof)
				cfg.Cost = cost
				r, err := inst.runSim(simLabel(prof, s.Name()+"/"+wl.Name), cfg, wl)
				if err != nil {
					return nil, err
				}
				cycles = r.Cycles
			}
			res.Normalized[wi][si] = float64(baseline[wi]) / float64(cycles)
		}
	}
	res.GeoMean = make([]float64, len(schemes))
	for si := range schemes {
		col := make([]float64, len(suite))
		for wi := range suite {
			col[wi] = res.Normalized[wi][si]
		}
		res.GeoMean[si] = stats.GeoMean(col)
	}
	return res, nil
}

// Render formats the F4 table.
func (r *PerfResult) Render() string {
	t := &Table{
		Title:  "F4: performance normalized to No-ECC (higher is better)",
		Header: append([]string{"workload"}, r.Schemes...),
	}
	for wi, w := range r.Workloads {
		row := []string{w}
		for si := range r.Schemes {
			row = append(row, fmt.Sprintf("%.3f", r.Normalized[wi][si]))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, g := range r.GeoMean {
		gm = append(gm, fmt.Sprintf("%.3f", g))
	}
	t.AddRow(gm...)
	t.Notes = append(t.Notes, r.headline()...)
	return t.Render()
}

// headline extracts the abstract's performance comparisons.
func (r *PerfResult) headline() []string {
	idx := map[string]int{}
	for i, n := range r.Schemes {
		idx[n] = i
	}
	var notes []string
	if pi, ok := idx["pair"]; ok {
		if xi, ok := idx["xed"]; ok {
			notes = append(notes, fmt.Sprintf("PAIR over XED: %+.1f%% (geomean)", (r.GeoMean[pi]/r.GeoMean[xi]-1)*100))
		}
		if di, ok := idx["duo"]; ok {
			notes = append(notes, fmt.Sprintf("PAIR over DUO: %+.1f%% (geomean)", (r.GeoMean[pi]/r.GeoMean[di]-1)*100))
		}
	}
	return notes
}

// F5WriteSweep sweeps the write ratio on a random-access stream — the
// ablation isolating where XED's parity-write traffic and the RMW costs
// bite (figure F5) — on the memory profile prof (nil = the DDR4 default).
func F5WriteSweep(schemes []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*Table, error) {
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	suite := trace.WriteSweep(requests, fracs, 0.3)
	res, err := perfOnProfile(schemes, suite, prof, inst)
	if err != nil {
		return nil, err
	}
	title := "F5: normalized performance vs write ratio (30% of writes masked)"
	if prof != nil {
		title += " [" + prof.Spec() + "]"
	}
	t := &Table{
		Title:  title,
		Header: append([]string{"write ratio"}, res.Schemes...),
	}
	for wi := range suite {
		row := []string{fmt.Sprintf("%.0f%%", fracs[wi]*100)}
		for si := range res.Schemes {
			row = append(row, fmt.Sprintf("%.3f", res.Normalized[wi][si]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// F4Latency renders the tail read-latency companion to F4: mean, p99 and
// p999 read latency per scheme on the two most latency-revealing
// workloads (a pointer-chaser and a masked-write-heavy mix), on the
// memory profile prof (nil = the DDR4 default). Companion writes and RMW
// reads interfere with demand reads, which shows in the tail long before
// it moves the mean.
func F4Latency(set []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*Table, error) {
	title := "F4b: read latency (mean / p99 / p999, ns) per scheme"
	if prof != nil {
		title += " [" + prof.Spec() + "]"
	}
	t := &Table{
		Title:  title,
		Header: []string{"workload"},
	}
	for _, s := range set {
		t.Header = append(t.Header, s.Name())
	}
	suite := trace.SPECLike(requests)
	for _, wl := range suite {
		if wl.Name != "mcf" && wl.Name != "x264" {
			continue
		}
		row := []string{wl.Name}
		for _, s := range set {
			cfg := simConfig(prof)
			cfg.Cost = s.Cost()
			res, err := inst.runSim(simLabel(prof, s.Name()+"/lat/"+wl.Name), cfg, wl)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f",
				res.AvgReadLatencyNS(cfg.Timing), res.P99ReadLatencyNS(cfg.Timing),
				res.P999ReadLatencyNS(cfg.Timing)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "XED's parity writes queue ahead of demand reads: the p99 inflates far more than the mean")
	return t, nil
}

// F4CommandMix renders the command-stream observability companion to F4:
// the DRAM command histogram, row-buffer behavior and data-bus occupancy
// per scheme on the masked-write-heavy x264 mix — the mechanism-level
// view behind the normalized-cycles rows.
func F4CommandMix(set []ecc.Scheme, requests int, inst SimInstrumentation) (*Table, error) {
	t := &Table{
		Title:  "F4c: command mix and bus occupancy (x264 mix)",
		Header: []string{"scheme", "ACT", "PRE", "RD", "WR", "REF", "row hit%", "bus util%"},
	}
	var wl trace.Workload
	for _, w := range trace.SPECLike(requests) {
		if w.Name == "x264" {
			wl = w
		}
	}
	for _, s := range set {
		cfg := memsim.DefaultConfig()
		cfg.Cost = s.Cost()
		res, err := inst.runSim(s.Name()+"/mix/"+wl.Name, cfg, wl)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name(),
			fmt.Sprintf("%d", res.Cmds.ACT),
			fmt.Sprintf("%d", res.Cmds.PRE),
			fmt.Sprintf("%d", res.Cmds.RD),
			fmt.Sprintf("%d", res.Cmds.WR),
			fmt.Sprintf("%d", res.Cmds.REF),
			fmt.Sprintf("%.1f", res.RowHitRate()*100),
			fmt.Sprintf("%.1f", res.BusUtilization()*100))
	}
	t.Notes = append(t.Notes,
		"XED's extra WR column is the companion parity-write traffic; DUO's bus util is the +1 extension beat")
	return t, nil
}

// F11ScrubTraffic measures the performance cost of patrol scrubbing at
// several rates on a moderately loaded workload — the bandwidth side of
// the reliability/scrub-interval trade-off (F8 is the reliability side).
func F11ScrubTraffic(requests int, inst SimInstrumentation) (*Table, error) {
	wl := trace.Generate(trace.Params{
		Name: "mixed", Requests: requests, Lines: 1 << 20, Pattern: trace.Random,
		ReadFrac: 0.7, MaskedFrac: 0.2, MeanGap: 4, Window: 8, Seed: 42,
	})
	t := &Table{
		Title:  "F11: performance vs patrol-scrub rate (PAIR cost model)",
		Header: []string{"scrub period (cycles)", "scrub reads", "cycles", "normalized"},
	}
	pairCost := schemes.MustNew("pair").Cost()
	baseCfg := memsim.DefaultConfig()
	baseCfg.Cost = pairCost
	base, err := inst.runSim("scrub-off", baseCfg, wl)
	if err != nil {
		return nil, err
	}
	t.AddRow("off", "0", fmt.Sprintf("%d", base.Cycles), "1.000")
	for _, period := range []uint64{10000, 1000, 100} {
		cfg := memsim.DefaultConfig()
		cfg.Cost = pairCost
		cfg.ScrubPeriod = period
		r, err := inst.runSim(fmt.Sprintf("scrub-%d", period), cfg, wl)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", period),
			fmt.Sprintf("%d", r.ScrubReads),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.3f", float64(base.Cycles)/float64(r.Cycles)))
	}
	t.Notes = append(t.Notes, "pairs with F8: tighter scrubbing buys transient-fault pairing protection at this bandwidth price")
	return t, nil
}

// T3Complexity renders the decoder-complexity and latency comparison.
// Gate counts are analytic estimates: Hamming costs are exact XOR counts
// from the parity-check columns; Reed-Solomon costs use the standard
// constant-multiplier estimate of ~20 XOR2 gates per GF(256) multiply
// (encoder: k*(n-k) multipliers; syndrome/interpolation decoder: ~2x).
func T3Complexity() *Table {
	t := &Table{
		Title:  "T3: storage, logic and latency overheads",
		Header: []string{"scheme", "storage ovh", "enc XOR (est)", "dec XOR (est)", "read latency adder", "write cost"},
	}
	const gfMulXOR = 20
	rsEnc := func(n, k int) int { return k * (n - k) * gfMulXOR }
	rsDec := func(n, k int) int { return 2 * n * (n - k) * gfMulXOR }
	hammingEncXOR := func(k int) int { return hamming.MustSEC(k).EncoderXORs() }

	iecc := schemes.MustNew("iecc")
	t.AddRow("iecc", pct(iecc.StorageOverhead()),
		fmt.Sprintf("%d", hammingEncXOR(128)),
		fmt.Sprintf("%d", hammingEncXOR(128)+136),
		fmt.Sprintf("%.1fns", iecc.Cost().DecodeLatencyNS), "internal RMW (masked)")

	xed := schemes.MustNew("xed")
	t.AddRow("xed", pct(xed.StorageOverhead()),
		fmt.Sprintf("%d", hammingEncXOR(128)+128*3),
		fmt.Sprintf("%d", hammingEncXOR(128)+128*3),
		fmt.Sprintf("%.1fns", xed.Cost().DecodeLatencyNS), "+1 parity write / write")

	duo := schemes.MustNew("duo")
	t.AddRow("duo", pct(duo.StorageOverhead()),
		fmt.Sprintf("%d", rsEnc(18, 16)),
		fmt.Sprintf("%d", rsDec(18, 16)),
		fmt.Sprintf("%.1fns", duo.Cost().DecodeLatencyNS), "BL9 bursts; RMW (masked)")

	pairBase := schemes.MustNew("pair-base")
	t.AddRow("pair-base", pct(pairBase.StorageOverhead()),
		fmt.Sprintf("%d", rsEnc(18, 16)),
		fmt.Sprintf("%d", rsDec(18, 16)),
		fmt.Sprintf("%.1fns", pairBase.Cost().DecodeLatencyNS), "internal RMW (masked)")

	pairFull := schemes.MustNew("pair")
	t.AddRow("pair", pct(pairFull.StorageOverhead()),
		fmt.Sprintf("%d", rsEnc(20, 16)),
		fmt.Sprintf("%d", rsDec(20, 16)),
		fmt.Sprintf("%.1fns", pairFull.Cost().DecodeLatencyNS), "internal RMW (masked)")

	t.Notes = append(t.Notes,
		"XED enc/dec adds the 4-chip XOR tree (128*3) for the rank-parity image",
		"RS costs: k*(n-k) const multipliers encode, ~2*n*(n-k) decode, 20 XOR2 per GF(256) multiplier")
	return t
}
