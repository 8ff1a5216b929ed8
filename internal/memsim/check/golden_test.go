package check_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pair/internal/ecc"
	"pair/internal/experiments"
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/trace"
)

// goldenCycles pins the end-to-end cycle count of every SPEC-like
// workload under each scheme's cost model at 1500 requests. The runs are
// deterministic, so any drift means the timing model changed — revisit
// EXPERIMENTS.md (the F4/F5 tables are produced by this code) before
// updating a number. iecc and pair agree exactly: their cost models add
// decode latency but no extra bus traffic, and cycles count bus time.
var goldenCycles = map[string]map[string]uint64{
	"none": {"lbm": 24739, "mcf": 53152, "milc": 31550, "gcc": 53398, "bwaves": 23302, "cactu": 51930, "omnetpp": 53606, "x264": 54976, "xz": 53254, "fotonik": 24558},
	"iecc": {"lbm": 24651, "mcf": 53171, "milc": 32100, "gcc": 55734, "bwaves": 23493, "cactu": 54648, "omnetpp": 55254, "x264": 61223, "xz": 55330, "fotonik": 24999},
	"xed":  {"lbm": 27820, "mcf": 54860, "milc": 43222, "gcc": 68280, "bwaves": 26021, "cactu": 87474, "omnetpp": 65170, "x264": 89314, "xz": 72902, "fotonik": 28788},
	"duo":  {"lbm": 25901, "mcf": 53208, "milc": 32992, "gcc": 55901, "bwaves": 24734, "cactu": 54821, "omnetpp": 55351, "x264": 61576, "xz": 55456, "fotonik": 26171},
	"pair": {"lbm": 24651, "mcf": 53171, "milc": 32100, "gcc": 55734, "bwaves": 23493, "cactu": 54648, "omnetpp": 55254, "x264": 61223, "xz": 55330, "fotonik": 24999},
}

// TestSPECSuiteProtocolCleanGolden is the differential acceptance test:
// the full SPEC-like suite under all five scheme cost models runs with
// the JEDEC checker attached, expecting zero violations and the pinned
// golden cycle counts.
func TestSPECSuiteProtocolCleanGolden(t *testing.T) {
	suite := trace.SPECLike(1500)
	for _, s := range experiments.PerfSchemes() {
		golden, ok := goldenCycles[s.Name()]
		if !ok {
			t.Fatalf("no golden row for scheme %q", s.Name())
		}
		for _, wl := range suite {
			cfg := memsim.DefaultConfig()
			cfg.Cost = s.Cost()
			chk := check.ForProfile(cfg.Profile)
			cfg.Observer = chk
			res := memsim.MustRun(cfg, wl)
			if err := chk.Err(); err != nil {
				t.Errorf("%s/%s: %v", s.Name(), wl.Name, err)
				continue
			}
			if chk.Commands() == 0 {
				t.Errorf("%s/%s: checker observed no commands", s.Name(), wl.Name)
			}
			if want := golden[wl.Name]; res.Cycles != want {
				t.Errorf("%s/%s: %d cycles, golden %d", s.Name(), wl.Name, res.Cycles, want)
			}
		}
	}
}

// profileGoldenFile pins one row per run of profileGoldenRuns. The
// values were recorded from the scheduler as it stood before each op
// cached its bank coordinates and pick became one pass over the queue;
// they are never regenerated to make a change pass.
const profileGoldenFile = "testdata/profile_goldens.json"

// profileGolden is what the profile goldens pin of one run.
type profileGolden struct {
	Cycles         uint64           `json:"cycles"`
	RowHits        uint64           `json:"row_hits"`
	RowMisses      uint64           `json:"row_misses"`
	Cmds           memsim.CmdCounts `json:"cmds"`
	ExtraReads     uint64           `json:"extra_reads"`
	ExtraWrites    uint64           `json:"extra_writes"`
	ReadLatencySum uint64           `json:"read_latency_sum"`
	P99ReadLatency float64          `json:"p99_read_latency"`
}

type goldenRun struct {
	name string
	cfg  memsim.Config
	wl   trace.Workload
}

// profileGoldenRuns are every builtin profile under every perf scheme on
// two F14-shape open-loop traces (Poisson at load 0.35, bursty at 0.20:
// deep queues, two subchannels on DDR5, same-bank refresh, LPDDR5's
// closed page), plus two DDR4 runs through the op sites no perf scheme
// reaches: patrol scrub, and detection re-reads with full-write extra
// reads on top of XED's costs.
func profileGoldenRuns() []goldenRun {
	traces := []trace.Workload{
		f14Trace(trace.PoissonArrival, 0.35, 303),
		f14Trace(trace.BurstyArrival, 0.20, 304),
	}
	var runs []goldenRun
	for _, id := range memsim.ProfileIDs() {
		prof := memsim.MustProfile(id)
		for _, s := range experiments.PerfSchemes() {
			for _, wl := range traces {
				cfg := prof.Config()
				cfg.Cost = s.Cost()
				runs = append(runs, goldenRun{id + "/" + s.Name() + "/" + wl.Name, cfg, wl})
			}
		}
	}
	scrub := memsim.MustProfile("ddr4-2400").Config()
	scrub.Cost = perfCost("pair")
	scrub.ScrubPeriod = 200
	reread := memsim.MustProfile("ddr4-2400").Config()
	reread.Cost = perfCost("xed")
	reread.Cost.DetectionRereadRate = 0.25
	reread.Cost.ExtraReadsPerWrite = 0.25
	return append(runs,
		goldenRun{"ddr4-2400/scrub/" + traces[0].Name, scrub, traces[0]},
		goldenRun{"ddr4-2400/reread/" + traces[0].Name, reread, traces[0]})
}

func perfCost(name string) ecc.AccessCost {
	for _, s := range experiments.PerfSchemes() {
		if s.Name() == name {
			return s.Cost()
		}
	}
	panic("no " + name + " in the perf set")
}

func f14Trace(arrival trace.Arrival, load float64, seed int64) trace.Workload {
	wl := trace.Traffic(trace.TrafficParams{
		Requests: 4000, Arrival: arrival, Load: load,
		Users: 32, ReadFrac: 0.7, MaskedFrac: 0.2, Lines: 1 << 20,
		HotFraction: 0.3, Seed: seed,
	})
	wl.Name = fmt.Sprintf("%s@%.2f", arrival, load)
	return wl
}

func goldenOf(r memsim.Result) profileGolden {
	return profileGolden{
		Cycles: r.Cycles, RowHits: r.RowHits, RowMisses: r.RowMisses, Cmds: r.Cmds,
		ExtraReads: r.ExtraReads, ExtraWrites: r.ExtraWrites, ReadLatencySum: r.ReadLatencySum,
		P99ReadLatency: r.ReadLatency.Percentile(99),
	}
}

// TestProfileTrafficGolden runs every profile golden with the profile's
// checker attached, expecting zero violations and the pinned counts.
func TestProfileTrafficGolden(t *testing.T) {
	raw, err := os.ReadFile(profileGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]profileGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	runs := profileGoldenRuns()
	if len(want) != len(runs) {
		t.Errorf("%s has %d rows, the test %d runs", profileGoldenFile, len(want), len(runs))
	}
	for _, r := range runs {
		w, ok := want[r.name]
		if !ok {
			t.Errorf("%s: no golden row", r.name)
			continue
		}
		chk := check.ForProfile(r.cfg.Profile)
		r.cfg.Observer = chk
		res := memsim.MustRun(r.cfg, r.wl)
		if err := chk.Err(); err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		if chk.Commands() == 0 {
			t.Errorf("%s: checker observed no commands", r.name)
		}
		if got := goldenOf(res); got != w {
			t.Errorf("%s:\n got  %+v\n want %+v", r.name, got, w)
		}
	}
}
