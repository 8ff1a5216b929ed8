// Command tracegen emits the synthetic workload traces the performance
// experiments use, one request per line, in a plain text format other
// simulators can consume:
//
//	<op> <line-address-hex> <gap-cycles>
//
// where op is R (read), W (full-line write) or M (masked write).
//
// Usage:
//
//	tracegen -suite -requests 20000 -out traces/    # the ten SPEC-like traces
//	tracegen -name mix -pattern random -reads 0.7 -masked 0.3 > mix.trace
//	tracegen -arrival poisson -load 0.2 -users 32 > traffic.trace  # open-loop traffic
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
	"pair/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args and writes traces to
// stdout (or files under -out in suite mode), returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite      = fs.Bool("suite", false, "emit the ten SPEC-like traces to -out")
		out        = fs.String("out", ".", "output directory for -suite")
		requests   = fs.Int("requests", 20000, "requests per trace")
		name       = fs.String("name", "custom", "trace name (single-trace mode)")
		pattern    = fs.String("pattern", "random", "sequential|random|strided|hotspot|pointer-chase")
		reads      = fs.Float64("reads", 0.7, "read fraction")
		masked     = fs.Float64("masked", 0.2, "masked fraction of writes")
		window     = fs.Int("window", 8, "MLP window hint (emitted as a header comment)")
		seed       = fs.Int64("seed", 1, "generator seed")
		listSchs   = fs.Bool("list-schemes", false, "list the scheme registry the traces feed into (memrun/pairsim specs), then exit")
		listFaults = fs.Bool("list-faults", false, "list the fault-scenario registry the reliability campaigns inject (pairsim -faults specs), then exit")
		listProfs  = fs.Bool("list-profiles", false, "list the memory-profile registry the traces replay on (memrun/pairsim -profile specs), then exit")
		arrival    = fs.String("arrival", "", "open-loop traffic mode: arrival process (poisson|bursty|diurnal); replaces -pattern")
		load       = fs.Float64("load", 0.1, "with -arrival: offered load in requests per cycle")
		users      = fs.Int("users", 32, "with -arrival: concurrent request sources (the MLP window)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var list string
	switch {
	case *listSchs:
		list = schemes.ListText()
	case *listFaults:
		list = faults.ListFaultsText()
	case *listProfs:
		list = memsim.ListProfilesText()
	}
	if list != "" {
		if _, err := io.WriteString(stdout, list); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		return 0
	}

	var wl trace.Workload
	switch {
	case *arrival != "":
		arr, err := trace.ParseArrival(*arrival)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		wl = trace.Traffic(trace.TrafficParams{
			Name:        *name,
			Requests:    *requests,
			Arrival:     arr,
			Load:        *load,
			Users:       *users,
			ReadFrac:    *reads,
			MaskedFrac:  *masked,
			Lines:       1 << 20,
			HotFraction: 0.3,
			Seed:        *seed,
		})
	case *suite:
		for _, w := range trace.SPECLike(*requests) {
			path := filepath.Join(*out, w.Name+".trace")
			f, err := os.Create(path)
			if err == nil {
				err = errors.Join(w.Write(f), f.Close())
			}
			if err != nil {
				fmt.Fprintln(stderr, "tracegen:", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s (%d requests)\n", path, len(w.Reqs))
		}
		return 0
	default:
		pat, err := parsePattern(*pattern)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		wl = trace.Generate(trace.Params{
			Name:        *name,
			Requests:    *requests,
			Lines:       1 << 20,
			Pattern:     pat,
			ReadFrac:    *reads,
			MaskedFrac:  *masked,
			Window:      *window,
			HotFraction: 0.6,
			Seed:        *seed,
		})
	}
	if err := wl.Write(stdout); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

func parsePattern(s string) (trace.Pattern, error) {
	switch s {
	case "sequential":
		return trace.Sequential, nil
	case "random":
		return trace.Random, nil
	case "strided":
		return trace.Strided, nil
	case "hotspot":
		return trace.Hotspot, nil
	case "pointer-chase":
		return trace.PointerChase, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q", s)
	}
}
