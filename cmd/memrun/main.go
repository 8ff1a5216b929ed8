// Command memrun replays a trace file (tracegen's format, or any
// `R|W|M <hex-line> <gap>` stream) through the DDR4 timing simulator
// under a chosen ECC scheme's cost model and prints the run summary.
//
// Usage:
//
//	tracegen -name mix -reads 0.6 > mix.trace
//	memrun -scheme pair mix.trace
//	memrun -scheme xed -compare none mix.trace     # with a baseline column
//	memrun -scheme pair@ddr5x16 mix.trace          # full spec grammar
//	memrun -scheme pair:spare=3.7 mix.trace        # spared-PAIR by spec
//	memrun -scheme pair -check mix.trace           # JEDEC protocol audit
//	memrun -scheme pair -cmdtrace - mix.trace      # DRAM command stream
//	memrun -scheme pair -profile ddr5-4800 mix.trace  # DDR5 memory system
//	memrun -scheme pair -cpuprofile cpu.out mix.trace # then: go tool pprof cpu.out
//
// -scheme and -compare take registry specs, name[@org][:key=val,...];
// -list-schemes prints the registered schemes, organizations and sets.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"pair"
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, replays the trace and
// prints the summary table to stdout, returning the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("memrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeName = fs.String("scheme", "pair", "ECC scheme spec, name[@org][:key=val,...] (see -list-schemes)")
		compare    = fs.String("compare", "", "optional second scheme spec to compare against")
		ranks      = fs.Int("ranks", 1, "ranks per channel")
		window     = fs.Int("window", 0, "override the trace's MLP window")
		checkFlag  = fs.Bool("check", false, "audit the run against the JEDEC timing constraints; violations exit nonzero")
		cmdtrace   = fs.String("cmdtrace", "", "write the DRAM command trace to this file (- for stdout)")
		listSchs   = fs.Bool("list-schemes", false, "list registered schemes, spec grammar, organizations and sets, then exit")
		listFaults = fs.Bool("list-faults", false, "list registered fault scenarios (the reliability campaigns' -faults specs), then exit")
		profSpec   = fs.String("profile", "", "memory profile spec, name[:key=val,...] (default: the scheme org on DDR4-2400 timing; see -list-profiles)")
		listProfs  = fs.Bool("list-profiles", false, "list registered memory profiles, the spec grammar and options, then exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Output that cannot be written (a full disk, a closed pipe) fails
	// the run.
	out := bufio.NewWriter(stdout)
	defer func() {
		if err := out.Flush(); err != nil && code == 0 {
			fmt.Fprintln(stderr, "memrun: stdout:", err)
			code = 1
		}
	}()
	if *listSchs {
		fmt.Fprint(out, pair.SchemeSpecHelp())
		return 0
	}
	if *listFaults {
		fmt.Fprint(out, pair.FaultSpecHelp())
		return 0
	}
	if *listProfs {
		fmt.Fprint(out, pair.ProfileSpecHelp())
		return 0
	}
	var profile *memsim.Profile
	if *profSpec != "" {
		var err error
		if profile, err = memsim.NewProfile(*profSpec); err != nil {
			fmt.Fprintln(stderr, "memrun:", err)
			return 2
		}
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: memrun [flags] <trace-file>  (use - for stdin)")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "memrun:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "memrun:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "memrun:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	wl, err := loadTrace(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "memrun:", err)
		return 1
	}
	if *window > 0 {
		wl.Window = *window
	}
	var traceW io.Writer
	if *cmdtrace != "" {
		if *cmdtrace == "-" {
			traceW = out
		} else {
			f, err := os.Create(*cmdtrace)
			if err != nil {
				fmt.Fprintln(stderr, "memrun:", err)
				return 1
			}
			// One write per command would be one syscall per command.
			tw := bufio.NewWriter(f)
			traceW = tw
			defer func() {
				err := tw.Flush()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintln(stderr, "memrun: command trace:", err)
					if code == 0 {
						code = 1
					}
				}
			}()
		}
	}
	s := wl.Stats()
	fmt.Fprintf(out, "trace %s: %d reads, %d writes (%d masked), window %d\n\n",
		wl.Name, s.Reads, s.Writes+s.MaskedWrites, s.MaskedWrites, wl.Window)
	fmt.Fprintf(out, "%-10s %12s %12s %11s %11s %12s %9s %7s\n",
		"scheme", "cycles", "exec ms", "extra rds", "extra wrs", "read lat ns", "row hit%", "bus%")

	names := []string{*schemeName}
	if *compare != "" {
		names = append(names, *compare)
	}
	exit := 0
	for _, n := range names {
		scheme, err := pair.SchemeBySpec(n)
		if err != nil {
			fmt.Fprintln(stderr, "memrun:", err)
			return 1
		}
		// The profile defines the memory system; the scheme only
		// contributes its access-cost model. Without -profile the
		// scheme's organization runs on the ddr4-2400 profile.
		prof := profile
		if *profSpec == "" {
			p := *memsim.MustProfile("ddr4-2400")
			p.Org = scheme.Org()
			prof = &p
		}
		cfg := prof.Config()
		cfg.Ranks = *ranks
		cfg.Cost = scheme.Cost()
		var chk *check.Checker
		var obs []memsim.Observer
		if *checkFlag {
			chk = check.ForProfile(prof)
			obs = append(obs, chk)
		}
		if traceW != nil {
			fmt.Fprintf(traceW, "# scheme %s\n", scheme.Name())
			obs = append(obs, &check.Tracer{W: traceW})
		}
		cfg.Observer = memsim.MultiObserver(obs...)
		res, err := memsim.Run(cfg, wl)
		if err != nil {
			fmt.Fprintln(stderr, "memrun:", err)
			return 1
		}
		fmt.Fprintf(out, "%-10s %12d %12.3f %11d %11d %12.1f %9.1f %7.1f\n",
			scheme.Name(), res.Cycles, res.ExecSeconds(prof.Timing)*1e3,
			res.ExtraReads, res.ExtraWrites, res.AvgReadLatencyNS(prof.Timing),
			res.RowHitRate()*100, res.BusUtilization()*100)
		if chk != nil {
			if err := chk.Err(); err != nil {
				fmt.Fprintf(stderr, "memrun: %s: %v\n", scheme.Name(), err)
				for _, v := range chk.Violations() {
					fmt.Fprintln(stderr, "  ", v)
				}
				exit = 1
			} else {
				fmt.Fprintf(out, "check: %s clean (%d commands, 0 violations)\n",
					scheme.Name(), chk.Commands())
			}
		}
	}
	return exit
}

func loadTrace(path string, stdin io.Reader) (trace.Workload, error) {
	if path == "-" {
		return trace.Parse(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return trace.Workload{}, err
	}
	defer f.Close()
	return trace.Parse(f)
}
