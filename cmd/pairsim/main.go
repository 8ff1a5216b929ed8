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
// Every experiment is declared once, in internal/experiments' index:
// -list prints it, -exp looks ids up in it (case-insensitively; "all"
// runs every entry but the variants f1, f2, t2x and f3x), and the pair
// facade's RunExperiment runs the same entries. DESIGN.md's
// per-experiment index describes each id; EXPERIMENTS.md records
// claimed-vs-measured values.
package main

import (
	"bufio"
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
	"pair/internal/experiments"
	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes the selected
// experiments and writes results to stdout and diagnostics to stderr,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pairsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(experiments.IDs(), "|")+"|all)")
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
		profSpec   = fs.String("profile", experiments.DefaultProfile, "memory profile spec, name[:key=val,...], for the profile columns of f4/f5 and the f14 traffic experiment")
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
	// Stdout is buffered and flushed after each experiment; output that
	// cannot be written (a full disk, a closed pipe) fails the run.
	out := bufio.NewWriter(stdout)
	defer func() {
		if err := out.Flush(); err != nil && code == 0 {
			fmt.Fprintln(stderr, "pairsim: stdout:", err)
			code = 1
		}
	}()
	if *list {
		fmt.Fprint(out, experiments.ListText())
		return 0
	}
	if *listSchs {
		fmt.Fprint(out, schemes.ListText())
		return 0
	}
	if *listFaults {
		fmt.Fprint(out, faults.ListFaultsText())
		return 0
	}
	if *listProfs {
		fmt.Fprint(out, memsim.ListProfilesText())
		return 0
	}
	sc := experiments.ScaleFor(*quick, *trials, *devices, *requests)
	var err error
	if sc.Profile, err = memsim.NewProfile(*profSpec); err != nil {
		fmt.Fprintln(stderr, "pairsim:", err)
		return 2
	}
	if *schemeList != "" {
		if sc.Schemes, err = schemes.ParseSpecList(*schemeList); err != nil {
			fmt.Fprintln(stderr, "pairsim:", err)
			return 2
		}
	}
	if *faultList != "" {
		if sc.Faults, err = faults.ParseFaultSpecList(*faultList); err != nil {
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
	exps, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "pairsim: %v (use -list)\n", err)
		return 1
	}
	sc.Sim.Check = *checkFlag
	if *cmdtrace == "-" {
		sc.Sim.CmdTrace = out
	} else if *cmdtrace != "" {
		f, err := os.Create(*cmdtrace)
		if err != nil {
			fmt.Fprintln(stderr, "pairsim:", err)
			return 1
		}
		// One write per command would be one syscall per command.
		tw := bufio.NewWriter(f)
		sc.Sim.CmdTrace = tw
		defer func() {
			err := tw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "pairsim: command trace:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
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

	if *fleetURL != "" {
		return runFleetExperiments(ctx, *fleetURL, exps, *schemeList, *faultList, sc, *progress, out, stderr)
	}
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(ctx, sc, opts)
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
		fmt.Fprintln(out, res)
		fmt.Fprintf(out, "[%s done in %v]\n\n", strings.ToUpper(e.ID), time.Since(start).Round(time.Millisecond))
		if err := out.Flush(); err != nil {
			fmt.Fprintln(stderr, "pairsim: stdout:", err)
			return 1
		}
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
