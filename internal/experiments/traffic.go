package experiments

import (
	"fmt"

	"pair/internal/ecc"
	"pair/internal/memsim"
	"pair/internal/trace"
)

// F4ProfileGeomeans renders the per-scheme geomean columns of F4 runs
// of one scheme set on one or more profiles side by side: how each ECC
// scheme's cost model lands across memory generations. DDR5's BL16 makes
// DUO's +1 extension beat relatively cheaper (1/16 vs 1/8 of a burst)
// while XED's whole-burst parity writes stay expensive everywhere.
func F4ProfileGeomeans(cols ...*PerfResult) *Table {
	t := &Table{
		Title:  "F4d: normalized performance geomean per scheme across profiles",
		Header: []string{"scheme"},
	}
	for _, c := range cols {
		t.Header = append(t.Header, c.prof.Spec())
	}
	for si, s := range cols[0].Schemes {
		row := []string{s}
		for _, c := range cols {
			row = append(row, fmt.Sprintf("%.3f", c.GeoMean[si]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"geomean over the ten SPEC-like workloads, normalized to No-ECC on the same profile")
	return t
}

// f14Points are the offered-load points of the tail-latency experiment:
// a Poisson ramp towards saturation plus a bursty and a diurnal process
// at the mid load, where arrival variance — not mean load — moves the
// tail.
type f14Point struct {
	arrival trace.Arrival
	load    float64
}

func f14Points() []f14Point {
	return []f14Point{
		{trace.PoissonArrival, 0.05},
		{trace.PoissonArrival, 0.10},
		{trace.PoissonArrival, 0.20},
		{trace.PoissonArrival, 0.35},
		{trace.BurstyArrival, 0.20},
		{trace.DiurnalArrival, 0.20},
	}
}

// F14TailLatency drives an open-loop traffic front end — many concurrent
// users sharing the channels — through the timing simulator at a sweep
// of offered loads and renders p99/p999 read latency per scheme. The
// open loop means queues grow when a scheme's extra traffic pushes the
// system past its knee: exactly where ECC overheads become user-visible.
func F14TailLatency(set []ecc.Scheme, requests int, prof *memsim.Profile, inst SimInstrumentation) (*Table, error) {
	var suite []trace.Workload
	for i, pt := range f14Points() {
		suite = append(suite, trace.Traffic(trace.TrafficParams{
			Requests: requests, Arrival: pt.arrival, Load: pt.load,
			Users: 32, ReadFrac: 0.7, MaskedFrac: 0.2, Lines: 1 << 20,
			HotFraction: 0.3, Seed: 300 + int64(i),
		}))
	}
	r, err := simulate(set, suite, prof, false, "f14/", inst)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  titled("F14: tail read latency (p99 / p999, ns) vs offered load", prof),
		Header: append([]string{"arrival@load"}, r.Schemes...),
	}
	tm := prof.Timing
	for wi, pt := range f14Points() {
		row := []string{fmt.Sprintf("%s@%.2f", pt.arrival, pt.load)}
		for _, res := range r.runs[wi] {
			row = append(row, fmt.Sprintf("%.0f/%.0f", res.P99ReadLatencyNS(tm), res.P999ReadLatencyNS(tm)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"open-loop arrivals: queues are not back-pressured, so past the knee the tail grows without bound",
		"bursty/diurnal rows hold the mid load constant and move only the arrival variance")
	return t, nil
}
