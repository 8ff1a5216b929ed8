// Command benchjson runs the kernel benchmarks with -benchmem and writes
// the parsed results as a BENCH_<n>.json trajectory file in the repo root,
// so successive optimization PRs leave a machine-readable record of where
// the codec hot paths stood before and after each change.
//
// Usage:
//
//	go run ./cmd/benchjson                     # next free BENCH_<n>.json
//	go run ./cmd/benchjson -out BENCH_0.json   # explicit slot
//	go run ./cmd/benchjson -bench 'RS' -label "post-chien"
//	go run ./cmd/benchjson -compare BENCH_2.json -threshold 2
//
// The default -bench regex covers the arithmetic/codec kernels (GF256,
// RS, Expandable, Hamming, SchemeEncodeDecode and SchemeBatchDecode) and
// SimThroughput, and deliberately excludes the minutes-long figure
// benchmarks (F1..F12, T1..T4) and Memsim.
//
// With -compare the run becomes a regression gate instead of a recorder:
// results are checked against the baseline file and the exit code is
// nonzero if any benchmark got slower than threshold x its baseline
// ns/op, allocates more than its baseline allocs/op, or disappeared from
// the run entirely (a stale baseline must be regenerated, not ignored).
// No file is written in compare mode unless -out is given explicitly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	ReqPerS     float64 `json:"req_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the BENCH_<n>.json payload.
type File struct {
	Label      string   `json:"label,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Bench      string   `json:"bench_regex"`
	Packages   []string `json:"packages"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8  1000  123 ns/op [... MB/s] [B/op allocs/op]`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// runGoTest invokes `go <args>` and returns its stdout. It is a package
// variable so tests can substitute canned benchmark output instead of
// spending minutes in real benchmark runs.
var runGoTest = func(args []string, stderr io.Writer) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = stderr
	return cmd.Output()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the benchmarks
// through runGoTest and writes the BENCH_<n>.json file, returning the
// exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "^Benchmark(GF256|RS|Expandable|Hamming|SchemeEncodeDecode|SchemeBatchDecode|SimThroughput)", "benchmark regex passed to go test -bench")
	pkg := fs.String("pkg", ".", "comma-separated packages to benchmark")
	out := fs.String("out", "", "output path (default: next free BENCH_<n>.json in repo root)")
	label := fs.String("label", "", "free-form label recorded in the file")
	benchtime := fs.String("benchtime", "", "value for go test -benchtime")
	count := fs.Int("count", 1, "value for go test -count")
	compare := fs.String("compare", "", "baseline BENCH_<n>.json: gate this run against it instead of recording")
	threshold := fs.Float64("threshold", 2.0, "with -compare, fail when ns/op exceeds threshold x the baseline")
	listSchs := fs.Bool("list-schemes", false, "list the scheme registry behind the Scheme* benchmarks, then exit")
	listFaults := fs.Bool("list-faults", false, "list the fault-scenario registry behind the campaign benchmarks, then exit")
	listProfs := fs.Bool("list-profiles", false, "list the memory-profile registry behind the simulator benchmarks, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Output that cannot be written (a full disk, a closed pipe) fails
	// the run.
	w := bufio.NewWriter(stdout)
	defer func() {
		if err := w.Flush(); err != nil && code == 0 {
			fmt.Fprintln(stderr, "benchjson: stdout:", err)
			code = 1
		}
	}()
	if *listSchs {
		fmt.Fprint(w, schemes.ListText())
		return 0
	}
	if *listFaults {
		fmt.Fprint(w, faults.ListFaultsText())
		return 0
	}
	if *listProfs {
		fmt.Fprint(w, memsim.ListProfilesText())
		return 0
	}

	pkgs := strings.Split(*pkg, ",")
	goArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		goArgs = append(goArgs, "-benchtime", *benchtime)
	}
	goArgs = append(goArgs, pkgs...)

	raw, err := runGoTest(goArgs, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: go %s: %v\n", strings.Join(goArgs, " "), err)
		return 1
	}

	results := parse(string(raw))
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines parsed")
		return 1
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		var base File
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(stderr, "benchjson: parse %s: %v\n", *compare, err)
			return 1
		}
		if n := regressions(base.Benchmarks, results, *threshold, w); n > 0 {
			fmt.Fprintf(stderr, "benchjson: %d regression(s) vs %s\n", n, *compare)
			return 1
		}
		fmt.Fprintf(w, "no regressions vs %s (threshold %.2gx)\n", *compare, *threshold)
		if *out == "" {
			return 0
		}
	}

	path := *out
	if path == "" {
		path = nextSlot(".")
	}
	f := File{
		Label:      *label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Bench:      *bench,
		Packages:   pkgs,
		Benchmarks: results,
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: marshal: %v\n", err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: write %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(w, "wrote %s (%d benchmarks)\n", path, len(results))
	return 0
}

// parse extracts benchmark results from `go test -bench` output. Averages
// are taken when -count > 1 repeats a name.
func parse(out string) []Result {
	type agg struct {
		r Result
		n int
	}
	order := []string{}
	byName := map[string]*agg{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerS = v
			case "req/s":
				r.ReqPerS = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		a, ok := byName[r.Name]
		if !ok {
			byName[r.Name] = &agg{r: r, n: 1}
			order = append(order, r.Name)
			continue
		}
		a.r.Iterations += r.Iterations
		a.r.NsPerOp += r.NsPerOp
		a.r.MBPerS += r.MBPerS
		a.r.ReqPerS += r.ReqPerS
		a.r.BytesPerOp += r.BytesPerOp
		a.r.AllocsPerOp += r.AllocsPerOp
		a.n++
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		a := byName[name]
		r := a.r
		if a.n > 1 {
			r.Iterations /= int64(a.n)
			r.NsPerOp /= float64(a.n)
			r.MBPerS /= float64(a.n)
			r.ReqPerS /= float64(a.n)
			r.BytesPerOp /= int64(a.n)
			r.AllocsPerOp /= int64(a.n)
		}
		results = append(results, r)
	}
	return results
}

// regressions compares the current results against a baseline, prints one
// verdict line per baseline benchmark, and returns the number of
// failures. A benchmark fails by getting slower than threshold x its
// baseline ns/op, by allocating more than its baseline allocs/op, or by
// vanishing from the run (stale baselines must be regenerated, not
// silently skipped). Benchmarks the baseline does not know are reported
// but never fail — recording them is the next BENCH_<n> snapshot's job.
func regressions(base, cur []Result, threshold float64, w io.Writer) int {
	curByName := make(map[string]Result, len(cur))
	for _, r := range cur {
		curByName[r.Name] = r
	}
	failures := 0
	for _, b := range base {
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "MISSING %s: in baseline but not in this run\n", b.Name)
			failures++
			continue
		}
		delete(curByName, b.Name)
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = c.NsPerOp / b.NsPerOp
		}
		switch {
		case ratio > threshold:
			fmt.Fprintf(w, "FAIL    %s: %.4g ns/op vs %.4g baseline (%.2fx > %.2gx)\n",
				b.Name, c.NsPerOp, b.NsPerOp, ratio, threshold)
			failures++
		case c.AllocsPerOp > b.AllocsPerOp:
			fmt.Fprintf(w, "FAIL    %s: %d allocs/op vs %d baseline\n",
				b.Name, c.AllocsPerOp, b.AllocsPerOp)
			failures++
		default:
			fmt.Fprintf(w, "ok      %s: %.4g ns/op (%.2fx of baseline), %d allocs/op\n",
				b.Name, c.NsPerOp, ratio, c.AllocsPerOp)
		}
	}
	for _, r := range cur {
		if _, seen := curByName[r.Name]; seen {
			fmt.Fprintf(w, "new     %s: %.4g ns/op (no baseline)\n", r.Name, r.NsPerOp)
		}
	}
	return failures
}

// nextSlot returns the first BENCH_<n>.json path that does not exist yet.
func nextSlot(dir string) string {
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
