package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/schemes"
	"pair/internal/trace"
)

// simRequests is pairsim -quick's trace length. memsim starts every
// run cold (all rows closed); shorter traces would weigh the cold
// start more.
const simRequests = 4000

// simRun is one memsim.Run of a pass.
type simRun struct {
	key   string // profile/scheme/trace: the output key
	cfg   memsim.Config
	trace int // index into simWorkload.traces
}

// simWorkload runs the perf set's cost models on every built-in
// profile over a list of generated traces, one thread, no observer.
type simWorkload struct {
	gens   []func() trace.Workload
	traces []trace.Workload
	runs   []simRun
	// specLike marks sim-closed at seed offset 0, whose traces must
	// equal the program's own trace.SPECLike suite.
	specLike bool
	// What the last replay leaves for layers: its unobserved results
	// and their CPU time.
	last   []simCounters
	runCPU time.Duration
}

// simCounters are the outputs of one run that the gate compares.
type simCounters struct {
	Cycles         uint64           `json:"cycles"`
	Reads          uint64           `json:"reads"`
	Writes         uint64           `json:"writes"`
	MaskedWrites   uint64           `json:"masked_writes"`
	ExtraReads     uint64           `json:"extra_reads"`
	ExtraWrites    uint64           `json:"extra_writes"`
	RowHits        uint64           `json:"row_hits"`
	RowMisses      uint64           `json:"row_misses"`
	Refreshes      uint64           `json:"refreshes"`
	ScrubReads     uint64           `json:"scrub_reads"`
	ReadLatencySum uint64           `json:"read_latency_sum"`
	P99Latency     float64          `json:"p99_read_latency"`
	P999Latency    float64          `json:"p999_read_latency"`
	Cmds           memsim.CmdCounts `json:"cmds"`
	BusBusyCycles  uint64           `json:"bus_busy_cycles"`
}

func countersOf(r memsim.Result) simCounters {
	c := simCounters{
		Cycles: r.Cycles, Reads: r.Reads, Writes: r.Writes, MaskedWrites: r.MaskedWrites,
		ExtraReads: r.ExtraReads, ExtraWrites: r.ExtraWrites, RowHits: r.RowHits, RowMisses: r.RowMisses,
		Refreshes: r.Refreshes, ScrubReads: r.ScrubReads, ReadLatencySum: r.ReadLatencySum,
		Cmds: r.Cmds, BusBusyCycles: r.BusBusyCycles,
	}
	if r.ReadLatency != nil && r.ReadLatency.Count() > 0 {
		c.P99Latency = r.ReadLatency.Percentile(99)
		c.P999Latency = r.ReadLatency.Percentile(99.9)
	}
	return c
}

// specLikeParams are trace.SPECLike's ten workloads with offset added
// to each trace seed (101..110). Offset 0 reproduces SPECLike exactly,
// which the replay checks.
func specLikeParams(offset int64) []trace.Params {
	ps := []trace.Params{
		{Name: "lbm", Pattern: trace.Sequential, ReadFrac: 0.55, MaskedFrac: 0.05, MeanGap: 2, Window: 16, Seed: 101},
		{Name: "mcf", Pattern: trace.PointerChase, ReadFrac: 0.97, MaskedFrac: 0.0, MeanGap: 12, Window: 2, Seed: 102},
		{Name: "milc", Pattern: trace.Strided, ReadFrac: 0.70, MaskedFrac: 0.10, MeanGap: 3, Window: 12, Stride: 33, Seed: 103},
		{Name: "gcc", Pattern: trace.Hotspot, ReadFrac: 0.80, MaskedFrac: 0.35, MeanGap: 6, Window: 6, HotFraction: 0.6, Seed: 104},
		{Name: "bwaves", Pattern: trace.Sequential, ReadFrac: 0.65, MaskedFrac: 0.02, MeanGap: 2, Window: 16, Seed: 105},
		{Name: "cactu", Pattern: trace.Strided, ReadFrac: 0.60, MaskedFrac: 0.15, MeanGap: 4, Window: 10, Stride: 129, Seed: 106},
		{Name: "omnetpp", Pattern: trace.Random, ReadFrac: 0.85, MaskedFrac: 0.30, MeanGap: 8, Window: 4, Seed: 107},
		{Name: "x264", Pattern: trace.Hotspot, ReadFrac: 0.60, MaskedFrac: 0.50, MeanGap: 5, Window: 8, HotFraction: 0.4, Seed: 108},
		{Name: "xz", Pattern: trace.Random, ReadFrac: 0.75, MaskedFrac: 0.25, MeanGap: 7, Window: 6, Seed: 109},
		{Name: "fotonik", Pattern: trace.Sequential, ReadFrac: 0.50, MaskedFrac: 0.08, MeanGap: 2, Window: 16, Seed: 110},
	}
	for i := range ps {
		ps[i].Requests = simRequests
		ps[i].Lines = 1 << 20
		ps[i].Seed += offset
	}
	return ps
}

// newSimClosed is the F4/F5 shape: the ten SPEC-like closed-loop traces.
func newSimClosed(cfg config, _ io.Writer) (instance, error) {
	offset := cfg.seed - defaultSeed
	var gens []func() trace.Workload
	for _, p := range specLikeParams(offset) {
		p := p
		gens = append(gens, func() trace.Workload { return trace.Generate(p) })
	}
	w, err := newSim(cfg.seed, gens)
	if err != nil {
		return nil, err
	}
	w.specLike = offset == 0
	return w, nil
}

// f14Points are F14's offered-load points (requests per front-end
// cycle): a Poisson ramp, then bursty and diurnal arrivals at the mid
// load.
var f14Points = []struct {
	arrival trace.Arrival
	load    float64
}{
	{trace.PoissonArrival, 0.05},
	{trace.PoissonArrival, 0.10},
	{trace.PoissonArrival, 0.20},
	{trace.PoissonArrival, 0.35},
	{trace.BurstyArrival, 0.20},
	{trace.DiurnalArrival, 0.20},
}

// newSimOpen is the F14 shape: open-loop arrivals from 32 users, 70%
// reads, 20% of writes masked, trace seeds 300+i plus the seed offset.
func newSimOpen(cfg config, _ io.Writer) (instance, error) {
	offset := cfg.seed - defaultSeed
	var gens []func() trace.Workload
	for i, pt := range f14Points {
		p := trace.TrafficParams{
			Requests: simRequests, Arrival: pt.arrival, Load: pt.load,
			Users: 32, ReadFrac: 0.7, MaskedFrac: 0.2, Lines: 1 << 20,
			HotFraction: 0.3, Seed: 300 + int64(i) + offset,
		}
		gens = append(gens, func() trace.Workload { return trace.Traffic(p) })
	}
	return newSim(cfg.seed, gens)
}

func newSim(seed int64, gens []func() trace.Workload) (*simWorkload, error) {
	set, err := schemes.SetByID("perf")
	if err != nil {
		return nil, err
	}
	sch, err := schemes.Build(set.Specs)
	if err != nil {
		return nil, err
	}
	w := &simWorkload{gens: gens}
	for _, gen := range gens {
		w.traces = append(w.traces, gen())
	}
	for _, id := range memsim.ProfileIDs() {
		prof, err := memsim.NewProfile(id)
		if err != nil {
			return nil, err
		}
		for si, s := range sch {
			for ti, wl := range w.traces {
				cfg := prof.Config()
				cfg.Cost = s.Cost()
				cfg.Seed = seed
				w.runs = append(w.runs, simRun{key: id + "/" + set.Specs[si] + "/" + wl.Name, cfg: cfg, trace: ti})
			}
		}
	}
	return w, nil
}

func (w *simWorkload) close() error { return nil }

func (w *simWorkload) pass() (passResult, error) {
	out := make(map[string]string, len(w.runs))
	var done float64
	for _, r := range w.runs {
		res, err := memsim.Run(r.cfg, w.traces[r.trace])
		if err != nil {
			return passResult{}, fmt.Errorf("%s: %w", r.key, err)
		}
		out[r.key] = mustJSON(countersOf(res))
		done += float64(res.Reads + res.Writes)
	}
	return passResult{out: out, units: done, weight: 1}, nil
}

// replay regenerates the traces and checks them, then runs every
// simulation twice more: first all of them unobserved, then all with
// the profile's JEDEC checker attached (kept apart so the checker's
// garbage is not collected on the unobserved runs' CPU time). Both must
// reproduce the untraced pass, and the checker must see no violation.
func (w *simWorkload) replay(tr *tracer, g *gate) error {
	for i, gen := range w.gens {
		s := tr.open(spanTraceGen, -1, int32(i))
		wl := gen()
		tr.close(s)
		if !reflect.DeepEqual(wl, w.traces[i]) {
			g.problem("trace %s differs between two generations from one seed", wl.Name)
		}
	}
	if w.specLike && !reflect.DeepEqual(w.traces, trace.SPECLike(simRequests)) {
		g.problem("the benchmark's SPEC-like parameters no longer reproduce trace.SPECLike")
	}
	plain := make(map[string]string, len(w.runs))
	w.last, w.runCPU = w.last[:0], 0
	for ri, r := range w.runs {
		s := tr.open(spanSimRun, -1, int32(ri))
		c0 := cpuTime()
		res, err := memsim.Run(r.cfg, w.traces[r.trace])
		w.runCPU += cpuTime() - c0
		tr.close(s)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		c := countersOf(res)
		plain[r.key] = mustJSON(c)
		w.last = append(w.last, c)
	}
	g.compare("replay", plain, 1)

	checked := make(map[string]string, len(w.runs))
	for ri, r := range w.runs {
		cfg := r.cfg
		chk := check.ForProfile(cfg.Profile)
		cfg.Observer = chk
		s := tr.open(spanSimCheck, -1, int32(ri))
		res, err := memsim.Run(cfg, w.traces[r.trace])
		tr.close(s)
		if err != nil {
			return fmt.Errorf("%s with checker: %w", r.key, err)
		}
		checked[r.key] = mustJSON(countersOf(res))
		if err := chk.Err(); err != nil {
			checked[r.key] = err.Error()
		}
	}
	g.compare("checker-attached replay", checked, 1)
	return nil
}

// layers reports the modelled design's per-request figures from the
// replay's counters and the host time of trace generation.
func (w *simWorkload) layers(tr *tracer, cpuPerReq float64) (map[string]float64, error) {
	var t simCounters
	for _, c := range w.last {
		t.Cycles += c.Cycles
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.ExtraReads += c.ExtraReads
		t.ExtraWrites += c.ExtraWrites
		t.RowHits += c.RowHits
		t.RowMisses += c.RowMisses
		t.ReadLatencySum += c.ReadLatencySum
		t.BusBusyCycles += c.BusBusyCycles
		t.Cmds.ACT += c.Cmds.ACT
		t.Cmds.PRE += c.Cmds.PRE
		t.Cmds.RD += c.Cmds.RD
		t.Cmds.WR += c.Cmds.WR
		t.Cmds.REF += c.Cmds.REF
	}
	var generated float64
	for _, wl := range w.traces {
		generated += float64(len(wl.Reqs))
	}
	by := tr.sumBy(tr.durations())
	reqs := float64(t.Reads + t.Writes)
	return map[string]float64{
		"trace.gen_ns_per_req":      float64(by[spanTraceGen]) / generated,
		"memsim.reads_in_flight":    float64(t.ReadLatencySum) / float64(t.Cycles),
		"memsim.cmds_per_req":       float64(t.Cmds.ACT+t.Cmds.PRE+t.Cmds.RD+t.Cmds.WR+t.Cmds.REF) / reqs,
		"memsim.extra_ops_per_req":  float64(t.ExtraReads+t.ExtraWrites) / reqs,
		"memsim.row_hit_rate":       float64(t.RowHits) / float64(t.RowHits+t.RowMisses),
		"memsim.bus_util":           float64(t.BusBusyCycles) / float64(t.Cycles),
		"bench.trace_overhead_frac": float64(w.runCPU)/reqs/cpuPerReq - 1,
	}, nil
}
