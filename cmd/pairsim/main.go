// Command pairsim regenerates every table and figure of the PAIR study.
//
// Usage:
//
//	pairsim -exp all            # everything, publication scale
//	pairsim -exp f1 -quick      # one experiment, CI scale
//	pairsim -list               # what exists
//
// Long campaigns are resumable: with -checkpoint every Monte-Carlo
// campaign persists completed shards to <dir>, Ctrl-C stops the run after
// the in-flight shards finish, and a later invocation with -resume skips
// everything already computed — producing byte-identical results to an
// uninterrupted run.
//
//	pairsim -exp f3 -checkpoint ckpt/            # killable
//	pairsim -exp f3 -checkpoint ckpt/ -resume    # pick up where it stopped
//	pairsim -exp all -progress                   # shard counters + ETA on stderr
//	pairsim -exp f4 -cpuprofile cpu.out          # then: go tool pprof cpu.out
//
// Campaigns are failure-hardened: a shard that panics, errors, or hangs
// past -shard-timeout is retried up to -retries times (each attempt
// reseeds from the shard seed, so a successful retry is byte-identical);
// transient checkpoint I/O errors are retried with backoff, degrading to
// memory-only checkpointing when the budget runs out; and -salvage
// recovers every intact shard from a corrupted or truncated checkpoint
// instead of aborting the resume. Anything noteworthy is summarized in a
// defect report on stderr.
//
// Experiment identifiers match DESIGN.md's per-experiment index (T1, F1,
// F2, T2, F3, F4, F5, F6, F7, T3); EXPERIMENTS.md records claimed-vs-
// measured values.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/experiments"
	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// listText is the -list output, one experiment per line.
const listText = `T1  scheme configuration table
F1  reliability (DUE+SDC) vs inherent BER
F2  SDC vs inherent BER
T2  outcome by fault pattern
F3  7-year lifetime failure probability
F4  performance, SPEC-like suite
F5  performance vs write ratio
F6  PAIR expansion-level sweep
F7  burst-error correction
T3  storage/logic/latency overheads
F8  failure probability vs scrub interval (ablation)
F9  PAIR across DRAM generations (DDR4 BL8 vs DDR5 BL16)
F10 pin-sparing (erasure) extension
T4  bus energy proxy (DBI interaction)
F11 performance vs patrol-scrub rate
F12 lifetime with post-package repair (DUE-only repairability)
T5  PAIR design space across device widths (x4/x8/x16/DDR5)
T2X coverage incl. rank-level schemes (secded, duo-rank)
F3X lifetime incl. rank-level schemes
F13 fault-scenario differential table (scenarios x schemes)
F14 tail read latency vs offered load (open-loop traffic, -profile)
`

// run is the testable entry point: it parses args, executes the selected
// experiments and writes results to stdout and diagnostics to stderr,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pairsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment id (t1|f1|f2|t2|f3|f4|f5|f6|f7|t3|f8|f9|f10|t2x|f3x|f13|f14|all)")
		quick      = fs.Bool("quick", false, "CI-scale trial counts")
		trials     = fs.Int("trials", 0, "override Monte-Carlo trials per point")
		devices    = fs.Int("devices", 0, "override lifetime population size")
		requests   = fs.Int("requests", 0, "override trace length")
		list       = fs.Bool("list", false, "list experiments and exit")
		checkpoint = fs.String("checkpoint", "", "directory for campaign shard checkpoints (enables kill-and-resume)")
		resume     = fs.Bool("resume", false, "skip shards already recorded in -checkpoint")
		progress   = fs.Bool("progress", false, "report campaign progress (shards, trials/s, ETA) on stderr")
		checkFlag  = fs.Bool("check", false, "attach the JEDEC protocol checker to every timing simulation; any violation fails the run")
		cmdtrace   = fs.String("cmdtrace", "", "write the DRAM command trace of every timing simulation to this file (- for stdout)")
		schemeList = fs.String("schemes", "", "comma/space-separated scheme specs (name[@org][:key=val,...]) overriding the default set of set-driven experiments")
		listSchs   = fs.Bool("list-schemes", false, "list registered schemes, spec grammar, organizations and sets, then exit")
		faultList  = fs.String("faults", "", "comma/space-separated fault scenario specs (name[:key=val,...] or compose(...)): the f13 roster, and an ambient fault layer for f1/f2/f1f2/t2/t2x")
		listFaults = fs.Bool("list-faults", false, "list registered fault scenarios, the spec grammar and options, then exit")
		profSpec   = fs.String("profile", "ddr5-4800", "memory profile spec, name[:key=val,...], for the profile columns of f4/f5 and the f14 traffic experiment")
		listProfs  = fs.Bool("list-profiles", false, "list registered memory profiles, the spec grammar and options, then exit")
		retries    = fs.Int("retries", 1, "extra attempts for a shard whose function panics, errors, or times out (0 disables)")
		shardTO    = fs.Duration("shard-timeout", 0, "watchdog: abandon and retry a shard running longer than this (0 disables)")
		salvage    = fs.Bool("salvage", false, "with -resume: recover every intact shard from a corrupted or truncated checkpoint instead of aborting")
		fleetURL   = fs.String("fleet", "", "submit campaigns to a pairserve coordinator at this URL instead of running locally (f13 only; checkpoints live on the coordinator)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inst := experiments.SimInstrumentation{Check: *checkFlag}
	if *cmdtrace != "" {
		if *cmdtrace == "-" {
			inst.CmdTrace = stdout
		} else {
			f, err := os.Create(*cmdtrace)
			if err != nil {
				fmt.Fprintln(stderr, "pairsim:", err)
				return 1
			}
			defer f.Close()
			inst.CmdTrace = f
		}
	}
	// Always (re)install: a zero value resets any instrumentation left by a
	// previous in-process invocation (the tests call run() repeatedly).
	experiments.SetSimInstrumentation(inst)
	defer experiments.SetSimInstrumentation(experiments.SimInstrumentation{})
	if *list {
		fmt.Fprint(stdout, listText)
		return 0
	}
	if *listSchs {
		fmt.Fprint(stdout, schemes.ListText())
		return 0
	}
	if *listFaults {
		fmt.Fprint(stdout, faults.ListFaultsText())
		return 0
	}
	if *listProfs {
		fmt.Fprint(stdout, memsim.ListProfilesText())
		return 0
	}
	profile, err := memsim.NewProfile(*profSpec)
	if err != nil {
		fmt.Fprintln(stderr, "pairsim:", err)
		return 2
	}
	var override []ecc.Scheme
	if *schemeList != "" {
		var err error
		if override, err = schemes.ParseSpecList(*schemeList); err != nil {
			fmt.Fprintln(stderr, "pairsim:", err)
			return 2
		}
	}
	var scenarios []faults.Scenario
	if *faultList != "" {
		var err error
		if scenarios, err = faults.ParseFaultSpecList(*faultList); err != nil {
			fmt.Fprintln(stderr, "pairsim:", err)
			return 2
		}
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "pairsim: -resume requires -checkpoint")
		return 2
	}
	if *salvage && !*resume {
		fmt.Fprintln(stderr, "pairsim: -salvage requires -resume")
		return 2
	}
	if *retries < 0 {
		fmt.Fprintln(stderr, "pairsim: -retries must be >= 0")
		return 2
	}
	if *fleetURL != "" && (*checkpoint != "" || *resume) {
		fmt.Fprintln(stderr, "pairsim: -fleet is incompatible with -checkpoint/-resume (the coordinator owns the checkpoint directory; resume with pairserve -resume)")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "pairsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "pairsim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "pairsim:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report := new(campaign.Report)
	opts := campaign.Options{
		CheckpointDir: *checkpoint,
		Resume:        *resume,
		Salvage:       *salvage,
		Retries:       *retries,
		ShardTimeout:  *shardTO,
		Report:        report,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "pairsim: warning: "+format+"\n", args...)
		},
	}
	if *progress {
		prog := campaign.NewProgress()
		opts.Progress = prog
		stopReport := prog.Report(ctx, stderr, 2*time.Second)
		defer stopReport()
	}

	scale := scaleFor(*quick, *trials, *devices, *requests)
	scale.schemes = override
	scale.faults = scenarios
	scale.profile = profile
	// For the ambient experiments (f1/f2/f1f2/t2/t2x) several -faults specs
	// fold into one composed scenario; f13 keeps them as separate rows.
	scale.sweep.Faults = faults.Compose(scenarios...)
	ids := strings.Split(strings.ToLower(*exp), ",")
	if *exp == "all" {
		// f1f2 runs both sweeps off one set of conditional profiles.
		ids = []string{"t1", "f1f2", "t2", "f3", "f4", "f5", "f6", "f7", "t3", "t4", "t5", "f8", "f9", "f10", "f11", "f12", "f13", "f14"}
	}
	if *fleetURL != "" {
		return runFleetExperiments(ctx, *fleetURL, ids, *schemeList, *faultList, scale, *progress, stdout, stderr)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		// Experiments sharing one checkpoint directory are namespaced by
		// their id, so e.g. t2 and t2x campaigns never collide.
		opts.Namespace = id
		out, err := runExperiment(ctx, id, scale, opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				msg := "pairsim: interrupted"
				if *checkpoint != "" {
					msg += "; completed shards are checkpointed — rerun with -resume to continue"
				}
				fmt.Fprintln(stderr, msg)
				return 130
			}
			fmt.Fprintln(stderr, "pairsim:", err)
			printDefects(stderr, report)
			return 1
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", strings.ToUpper(id), time.Since(start).Round(time.Millisecond))
	}
	printDefects(stderr, report)
	return 0
}

// printDefects writes the campaign defect report (retries, salvage,
// degradation, shard failures) to w; silent when nothing went wrong.
func printDefects(w io.Writer, rep *campaign.Report) {
	if rep.Empty() {
		return
	}
	fmt.Fprintln(w, "pairsim: campaign defect report:")
	for _, line := range strings.Split(rep.Summary(), "\n") {
		fmt.Fprintln(w, "  "+line)
	}
}

type scale struct {
	sweep    experiments.SweepSettings
	coverage int
	devices  int
	requests int
	// schemes, when non-nil, overrides the default registry set of every
	// set-driven experiment (-schemes flag: any specs the registry builds).
	schemes []ecc.Scheme
	// faults, when non-nil, is the -faults roster: f13's scenario rows, and
	// (composed) the ambient layer carried by sweep.Faults.
	faults []faults.Scenario
	// profile is the -profile spec: the non-DDR4 column of f4/f5 and the
	// memory system of the f14 traffic experiment.
	profile *memsim.Profile
}

// scenarioSet returns the -faults roster when given, else every
// registered scenario at default options.
func (s scale) scenarioSet() []faults.Scenario {
	if s.faults != nil {
		return s.faults
	}
	return experiments.FaultScenarios()
}

// ambient is the composed -faults scenario for the ambient experiments
// (nil when -faults was not given).
func (s scale) ambient() faults.Scenario { return s.sweep.Faults }

// set returns the -schemes override when given, else the named default.
func (s scale) set(def func() []ecc.Scheme) []ecc.Scheme {
	if s.schemes != nil {
		return s.schemes
	}
	return def()
}

func scaleFor(quick bool, trials, devices, requests int) scale {
	s := scale{
		sweep:    experiments.DefaultSweep(),
		coverage: 20000,
		devices:  40000,
		requests: 20000,
	}
	if quick {
		s.sweep = experiments.QuickSweep()
		s.coverage = 2000
		s.devices = 2000
		s.requests = 4000
	}
	if trials > 0 {
		s.sweep.Trials = trials
		s.coverage = trials
	}
	if devices > 0 {
		s.devices = devices
	}
	if requests > 0 {
		s.requests = requests
	}
	return s
}

// runExperiment executes one experiment id. Monte-Carlo experiments run
// as sharded campaigns honoring ctx cancellation and the campaign
// options; the closed-form tables (t1, t3, t4) and the trace-driven
// performance experiments compute inline.
func runExperiment(ctx context.Context, id string, sc scale, opts campaign.Options) (string, error) {
	switch id {
	case "t1":
		return experiments.T1Config().Render(), nil
	case "f1":
		r, err := experiments.F1F2Ctx(ctx, sc.set(experiments.CommoditySchemes), sc.sweep, opts)
		if err != nil {
			return "", err
		}
		return r.RenderF1(), nil
	case "f2":
		r, err := experiments.F1F2Ctx(ctx, sc.set(experiments.CommoditySchemes), sc.sweep, opts)
		if err != nil {
			return "", err
		}
		return r.RenderF2(), nil
	case "f1f2":
		r, err := experiments.F1F2Ctx(ctx, sc.set(experiments.CommoditySchemes), sc.sweep, opts)
		if err != nil {
			return "", err
		}
		return r.RenderF1() + "\n" + r.RenderF2(), nil
	case "t2":
		t, err := experiments.T2CoverageEnvCtx(ctx, sc.set(experiments.CommoditySchemes), sc.coverage, 1, sc.ambient(), opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f3":
		t, err := experiments.F3LifetimeCtx(ctx, sc.set(experiments.CommoditySchemes), sc.devices, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f4":
		set := sc.set(experiments.PerfSchemes)
		perf, err := experiments.F4Performance(set, sc.requests)
		if err != nil {
			return "", err
		}
		lat, err := experiments.F4Latency(set, sc.requests)
		if err != nil {
			return "", err
		}
		mix, err := experiments.F4CommandMix(set, sc.requests)
		if err != nil {
			return "", err
		}
		gm, err := experiments.F4ProfileGeomeans(set, sc.requests, []string{"ddr4-2400", sc.profile.Spec()})
		if err != nil {
			return "", err
		}
		latP, err := experiments.F4LatencyOn(set, sc.requests, sc.profile)
		if err != nil {
			return "", err
		}
		return perf.Render() + "\n" + lat.Render() + "\n" + mix.Render() + "\n" +
			gm.Render() + "\n" + latP.Render(), nil
	case "f5":
		t, err := experiments.F5WriteSweep(sc.set(experiments.PerfSchemes), sc.requests)
		if err != nil {
			return "", err
		}
		tp, err := experiments.F5WriteSweepOn(sc.set(experiments.PerfSchemes), sc.requests, sc.profile)
		if err != nil {
			return "", err
		}
		return t.Render() + "\n" + tp.Render(), nil
	case "f6":
		t, err := experiments.F6ExpandabilityCtx(ctx, sc.sweep.Trials, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f7":
		t, err := experiments.F7BurstCtx(ctx, sc.set(experiments.CommoditySchemes), sc.coverage, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "t3":
		return experiments.T3Complexity().Render(), nil
	case "f8":
		t, err := experiments.F8ScrubSweepCtx(ctx, sc.set(experiments.CommoditySchemes), sc.devices/4, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f9":
		t, err := experiments.F9DDR5Ctx(ctx, sc.coverage, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f10":
		t, err := experiments.F10SparingCtx(ctx, sc.coverage, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "t2x":
		t, err := experiments.T2CoverageEnvCtx(ctx, sc.set(experiments.ExtendedSchemes), sc.coverage, 1, sc.ambient(), opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f3x":
		t, err := experiments.F3LifetimeCtx(ctx, sc.set(experiments.ExtendedSchemes), sc.devices, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "t4":
		return experiments.T4BusEnergy().Render(), nil
	case "f11":
		t, err := experiments.F11ScrubTraffic(sc.requests)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "t5":
		t, err := experiments.T5WidthsCtx(ctx, sc.coverage, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f12":
		t, err := experiments.F12RepairCtx(ctx, sc.set(experiments.CommoditySchemes), sc.devices, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f13":
		t, err := experiments.F13ScenariosCtx(ctx, sc.set(experiments.CommoditySchemes), sc.scenarioSet(), sc.coverage, 1, opts)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "f14":
		t, err := experiments.F14TailLatency(sc.set(experiments.PerfSchemes), sc.requests, sc.profile)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q (use -list)", id)
	}
}
