package experiments

import (
	"fmt"
	"io"
	"slices"

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
		chk = check.ForProfile(cfg.Profile)
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

// PerfResult holds the timing simulations of one scheme set on a suite
// of workloads on one memory profile, and, for the tables that
// normalize, each scheme's speed relative to the zero-cost baseline.
// F4, F5 and F14 and the F4 companions render from it.
type PerfResult struct {
	Workloads []string
	Schemes   []string
	// Normalized[w][s] = cycles(baseline) / cycles(scheme): 1.0 = baseline
	// speed, higher is better. Nil when the runs have no baseline.
	Normalized [][]float64
	GeoMean    []float64

	prof *memsim.Profile
	runs [][]memsim.Result // [workload][scheme]
}

// simulate runs every workload of suite on prof once per distinct
// ecc.AccessCost of set and keeps the results. Schemes with one cost
// share the run of the first of them, which names it in the run's
// -cmdtrace label, [<profile>/]<scheme>/<tag><workload>, so headers and
// error messages identify the memory generation. With normalize, each
// workload first runs at zero cost under the name "baseline", the set's
// zero-cost schemes share that run, and the result carries every
// scheme's normalized speed and geomean.
func simulate(set []ecc.Scheme, suite []trace.Workload, prof *memsim.Profile, normalize bool, tag string, inst SimInstrumentation) (*PerfResult, error) {
	prefix := profileName(prof)
	if prefix != "" {
		prefix += "/"
	}
	var names []string
	var costs []ecc.AccessCost
	if normalize {
		names, costs = []string{"baseline"}, []ecc.AccessCost{{}}
	}
	off := len(names) // index of the set's first scheme
	for _, s := range set {
		names = append(names, s.Name())
		costs = append(costs, s.Cost())
	}
	r := &PerfResult{Schemes: names[off:], prof: prof}
	for _, wl := range suite {
		runs := make([]memsim.Result, len(costs))
		for c, cost := range costs {
			if j := slices.Index(costs[:c], cost); j >= 0 {
				runs[c] = runs[j]
				continue
			}
			cfg := prof.Config()
			cfg.Cost = cost
			res, err := inst.runSim(prefix+names[c]+"/"+tag+wl.Name, cfg, wl)
			if err != nil {
				return nil, err
			}
			runs[c] = res
		}
		r.Workloads = append(r.Workloads, wl.Name)
		r.runs = append(r.runs, runs[off:])
		if normalize {
			norm := make([]float64, len(set))
			for si := range set {
				norm[si] = float64(runs[0].Cycles) / float64(runs[off+si].Cycles)
			}
			r.Normalized = append(r.Normalized, norm)
		}
	}
	if normalize {
		r.GeoMean = make([]float64, len(set))
		for si := range set {
			col := make([]float64, len(suite))
			for wi := range suite {
				col[wi] = r.Normalized[wi][si]
			}
			r.GeoMean[si] = stats.GeoMean(col)
		}
	}
	return r, nil
}

// profileName names prof in table titles and -cmdtrace labels: its spec,
// or nothing for ddr4-2400, the memory system of the paper's figures.
func profileName(prof *memsim.Profile) string {
	if s := prof.Spec(); s != paperProfile {
		return s
	}
	return ""
}

// titled appends the profile's name, when it has one, to a table title.
func titled(title string, prof *memsim.Profile) string {
	if n := profileName(prof); n != "" {
		return title + " [" + n + "]"
	}
	return title
}

// F4Performance runs the SPEC-like suite through the timing simulator on
// the memory profile prof, once per distinct cost model of the scheme
// set plus the baseline.
func F4Performance(set []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*PerfResult, error) {
	return simulate(set, trace.SPECLike(requests), prof, true, "", inst)
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
// bite (figure F5) — on the memory profile prof.
func F5WriteSweep(set []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*Table, error) {
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	res, err := simulate(set, trace.WriteSweep(requests, fracs, 0.3), prof, true, "", inst)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  titled("F5: normalized performance vs write ratio (30% of writes masked)", prof),
		Header: append([]string{"write ratio"}, res.Schemes...),
	}
	for wi, frac := range fracs {
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for si := range res.Schemes {
			row = append(row, fmt.Sprintf("%.3f", res.Normalized[wi][si]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// F4Latency renders the tail read-latency companion to F4 from its runs:
// mean, p99 and p999 read latency per scheme on the two most
// latency-revealing workloads (a pointer-chaser and a masked-write-heavy
// mix). Companion writes and RMW reads interfere with demand reads,
// which shows in the tail long before it moves the mean.
func F4Latency(r *PerfResult) *Table {
	t := &Table{
		Title:  titled("F4b: read latency (mean / p99 / p999, ns) per scheme", r.prof),
		Header: append([]string{"workload"}, r.Schemes...),
	}
	tm := r.prof.Timing
	for wi, w := range r.Workloads {
		if w != "mcf" && w != "x264" {
			continue
		}
		row := []string{w}
		for _, res := range r.runs[wi] {
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f",
				res.AvgReadLatencyNS(tm), res.P99ReadLatencyNS(tm), res.P999ReadLatencyNS(tm)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "XED's parity writes queue ahead of demand reads: the p99 inflates far more than the mean")
	return t
}

// F4CommandMix renders the command-stream observability companion to F4
// from its runs: the DRAM command histogram, row-buffer behavior and
// data-bus occupancy per scheme on the masked-write-heavy x264 mix — the
// mechanism-level view behind the normalized-cycles rows.
func F4CommandMix(r *PerfResult) *Table {
	t := &Table{
		Title:  titled("F4c: command mix and bus occupancy (x264 mix)", r.prof),
		Header: []string{"scheme", "ACT", "PRE", "RD", "WR", "REF", "row hit%", "bus util%"},
	}
	for wi, w := range r.Workloads {
		if w != "x264" {
			continue
		}
		for si, res := range r.runs[wi] {
			t.AddRow(r.Schemes[si],
				fmt.Sprintf("%d", res.Cmds.ACT),
				fmt.Sprintf("%d", res.Cmds.PRE),
				fmt.Sprintf("%d", res.Cmds.RD),
				fmt.Sprintf("%d", res.Cmds.WR),
				fmt.Sprintf("%d", res.Cmds.REF),
				fmt.Sprintf("%.1f", res.RowHitRate()*100),
				fmt.Sprintf("%.1f", res.BusUtilization()*100))
		}
	}
	t.Notes = append(t.Notes,
		"XED's extra WR column is the companion parity-write traffic; DUO's bus util is the +1 extension beat")
	return t
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
