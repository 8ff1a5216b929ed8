// Command e2ebench is the repository's end-to-end benchmark. It drives
// five workloads through the public entry points pairsim and pairserve
// use — reliability.ScenarioCoverageCtx, reliability.BuildProfileCtx,
// memsim.Run and the fleet coordinator, worker and client — checks every
// output, and prints one JSON result line as the last line of stdout.
//
// Usage, from the repository root (run.sh builds the benchmark first):
//
//	bash e2ebench/run.sh --workload mc-scenarios --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the same untraced passes run first,
// then one traced pass records spans around the benchmark's own calls
// into each layer and the result carries the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir receives span files and the fleet workload's state
	// directories; it is created if missing.
	dir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names; TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of every untraced run. Times are CPU time
// of the whole process, not wall time: on a shared virtual machine
// whose host takes the cores away for seconds at a time, wall-clock
// rates spread by up to half between runs (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// commodity is the scheme set both Monte-Carlo workloads and the fleet
// run (schemes.SetByID("commodity")); per-scheme stage metrics carry
// these specs as suffixes.
var commodity = []string{"iecc", "xed", "duo", "pair-base", "pair"}

// perLayer are the metrics of every traced run. A workload reports 0
// for the layers it does not reach.
var perLayer = func() []metricDef {
	defs := []metricDef{{"reliability.rng_ns", "ns"}, {"ecc.encode_ns", "ns"}}
	for _, s := range commodity {
		defs = append(defs, metricDef{"ecc.encode_ns." + s, "ns"})
	}
	defs = append(defs, metricDef{"faults.inject_ns", "ns"}, metricDef{"ecc.decode_ns", "ns"})
	for _, s := range commodity {
		defs = append(defs, metricDef{"ecc.decode_ns." + s, "ns"})
	}
	return append(defs,
		metricDef{"ecc.classify_ns", "ns"},
		metricDef{"ecc.clean_frac", "frac"},
		metricDef{"campaign.busy_frac", "frac"},
		metricDef{"heap.allocs_per_trial", "count"},
		metricDef{"trace.gen_ns_per_req", "ns"},
		metricDef{"memsim.reads_in_flight", "count"},
		metricDef{"memsim.cmds_per_req", "count"},
		metricDef{"memsim.extra_ops_per_req", "count"},
		metricDef{"memsim.row_hit_rate", "frac"},
		metricDef{"memsim.bus_util", "frac"},
		metricDef{"heap.allocs_per_req", "count"},
		metricDef{"heap.bytes_per_req", "B"},
		metricDef{"process.cores_busy", "cores"},
		metricDef{"fleet.lease_ms.p50", "ms"},
		metricDef{"fleet.lease_ms.tail", "ms"},
		metricDef{"fleet.lease_ms.tail_pct", "%"},
		metricDef{"fleet.lease_ms.samples", "count"},
		metricDef{"fleet.complete_ms.p50", "ms"},
		metricDef{"fleet.complete_ms.tail", "ms"},
		metricDef{"fleet.complete_ms.tail_pct", "%"},
		metricDef{"fleet.complete_ms.samples", "count"},
		metricDef{"fleet.compute_ms_per_shard", "ms"},
		metricDef{"fleet.protocol_frac", "frac"},
		metricDef{"fleet.rpcs_per_shard", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"fleet.reissued", "count"},
		metricDef{"fleet.state_bytes_per_shard", "B"},
		metricDef{"bench.trace_overhead_frac", "frac"},
	)
}()

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 21

// defaultSeed is the seed the stored reference outputs were made with.
const defaultSeed = 1

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// unit names the work counted by work_per_cpu_s: "trial" or "req".
	unit  string
	setup func(cfg config, log io.Writer) (instance, error)
}

var workloads = []workloadDef{
	{"mc-scenarios", "trial", newMCScenarios},
	{"mc-sweep", "trial", newMCSweep},
	{"sim-closed", "req", newSimClosed},
	{"sim-open", "req", newSimOpen},
	{"fleet", "trial", newFleet},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one set-up workload.
type instance interface {
	// pass runs every operation of the workload once through the
	// program's public entry points, with tracing off.
	pass() (passResult, error)
	// replay runs the operations again through the benchmark's own
	// instrumented path — recording spans into tr when it is non-nil —
	// and hands every output it produces to g for comparison with the
	// untraced pass. It keeps what layers needs.
	replay(tr *tracer, g *gate) error
	// layers derives the per-layer metrics of a traced replay;
	// cpuPerUnit is the untraced passes' CPU ns per unit of work, the
	// base of bench.trace_overhead_frac. A returned error is a failed
	// consistency check.
	layers(tr *tracer, cpuPerUnit float64) (map[string]float64, error)
	// close releases everything setup acquired.
	close() error
}

// passResult is the outcome of one pass.
type passResult struct {
	// out maps each operation key to its output, canonical JSON.
	out map[string]string
	// units is the work completed: trials or simulated requests.
	units float64
	// weight is how many operations stand behind one output key (the
	// fleet merges several leased shards into one campaign result).
	weight int
}

func run(args []string, stdout, stderr io.Writer) int {
	stderr = &syncWriter{w: stderr} // the fleet's goroutines log too
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: mc-scenarios|mc-sweep|sim-closed|sim-open|fleet")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; every input generator derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the untraced passes run; at least one pass always runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for span files and fleet state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	var want map[string]string
	if cfg.seed == defaultSeed {
		want = ref[w.name]
		if want == nil {
			fmt.Fprintf(stderr, "e2ebench: no reference outputs for %s\n", w.name)
			return 1
		}
	}
	res, err := runWorkload(w, cfg, want, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload sets the workload up, runs untraced passes for
// cfg.seconds, then the replay (traced when cfg.trace), and gathers the
// metrics. want holds the reference outputs, nil away from the default
// seed.
func runWorkload(w workloadDef, cfg config, want map[string]string, log io.Writer) (res *result, err error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := cpuTime()
		inst, err = w.setup(cfg, log)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	g := &gate{want: want, log: log}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rates []float64
	var units float64
	var wall, cpu time.Duration
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for len(rates) == 0 || wall < budget {
		t0, c0 := time.Now(), cpuTime()
		pr, err := inst.pass()
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", w.name, err)
		}
		c := cpuTime() - c0
		wall += time.Since(t0)
		cpu += c
		rates = append(rates, pr.units/c.Seconds())
		units += pr.units
		g.pass(pr)
	}
	runtime.ReadMemStats(&after)
	peakMB := peakRSSMB()
	rate := median(rates)
	fmt.Fprintf(log, "e2ebench: %s seed %d: %d passes, median %.0f %s per cpu-s, %.0f per wall-s\n",
		w.name, cfg.seed, len(rates), rate, w.unit, units/wall.Seconds())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	replayStart := time.Now()
	if err := inst.replay(tr, g); err != nil {
		return nil, fmt.Errorf("%s replay: %w", w.name, err)
	}
	fmt.Fprintf(log, "e2ebench: replay (traced: %v) took %.3fs\n", cfg.trace, time.Since(replayStart).Seconds())

	res = &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["work_per_cpu_s"] = metric{rate, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
	} else {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{0, d.unit}
		}
		vals, err := inst.layers(tr, float64(cpu)/units)
		if err != nil {
			g.problem("%s: %v", w.name, err)
		}
		if vals == nil {
			vals = map[string]float64{}
		}
		vals["process.cores_busy"] = cpu.Seconds() / wall.Seconds()
		mallocs := float64(after.Mallocs - before.Mallocs)
		if w.unit == "trial" {
			vals["heap.allocs_per_trial"] = mallocs / units
		} else {
			vals["heap.allocs_per_req"] = mallocs / units
			vals["heap.bytes_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / units
		}
		for name, v := range vals {
			m, ok := res.Metrics[name]
			if !ok {
				return nil, fmt.Errorf("%s: layer metric %q is not declared", w.name, name)
			}
			m.Value = v
			res.Metrics[name] = m
		}
		path := filepath.Join(cfg.dir, "spans", w.name+".tsv")
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "e2ebench: %d spans written to %s\n", len(tr.spans), path)
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Correct = g.failed == 0 && len(g.problems) == 0
	return res, nil
}

// gate is the correctness check every output passes through. An
// output that differs from the stored reference (default seed only),
// from the first untraced pass, or — for replays — from the untraced
// output of the same operation counts as a failed operation.
type gate struct {
	want      map[string]string
	first     map[string]string
	attempted int
	failed    int
	problems  []string
	logged    int
	log       io.Writer
}

// pass checks one untraced pass.
func (g *gate) pass(pr passResult) {
	if g.first == nil {
		g.first = pr.out
		if g.want != nil && len(g.want) != len(pr.out) {
			g.problem("pass has %d operations, reference has %d", len(pr.out), len(g.want))
		}
	}
	for _, key := range sortedKeys(pr.out) {
		got := pr.out[key]
		g.attempted += pr.weight
		ok := got == g.first[key]
		if !ok {
			g.mismatch("first pass", key, g.first[key], got)
		}
		if g.want != nil {
			if want, has := g.want[key]; !has || want != got {
				g.mismatch("reference", key, want, got)
				ok = false
			}
		}
		if !ok {
			g.failed += pr.weight
		}
	}
}

// compare checks a replay's outputs against the first untraced pass.
func (g *gate) compare(what string, out map[string]string, weight int) {
	if len(out) != len(g.first) {
		g.problem("%s has %d operations, the untraced pass %d", what, len(out), len(g.first))
	}
	for _, key := range sortedKeys(out) {
		g.attempted += weight
		if out[key] != g.first[key] {
			g.mismatch(what, key, g.first[key], out[key])
			g.failed += weight
		}
	}
}

func (g *gate) mismatch(what, key, want, got string) {
	if g.logged < 5 {
		fmt.Fprintf(g.log, "e2ebench: %s mismatch at %s: want %s, got %s\n", what, key, want, got)
	}
	g.logged++
}

func (g *gate) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(g.log, "e2ebench: check failed:", msg)
	g.problems = append(g.problems, msg)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mustJSON renders an output value canonically.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // outputs are plain structs and arrays
	}
	return string(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the CPU time all of the process's threads have used. On
// Linux it excludes time the host stole from the virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// syncWriter serializes writes from several goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
