package check_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"

	"pair/internal/experiments"
	"pair/internal/memsim"
	"pair/internal/trace"
)

// commandDigestFile pins the command stream of every run of
// commandDigestRuns. The values were recorded from the scheduler as it
// stood before pick stopped scanning the whole queue; they are never
// regenerated to make a change pass. A tie-break change that moves no
// count still changes a digest.
const commandDigestFile = "testdata/profile_command_digests.json"

// commandDigest is what the digests pin of one run.
type commandDigest struct {
	Commands        uint64  `json:"commands"`
	Digest          string  `json:"digest"` // FNV-64a over every field of every Command, hex
	P999ReadLatency float64 `json:"p999_read_latency"`
}

// digestObserver folds each observed command into an FNV-64a hash, one
// little-endian word per field.
type digestObserver struct {
	h hash.Hash64
	n uint64
}

func (d *digestObserver) Observe(c memsim.Command) {
	var buf [8 * 12]byte
	for i, v := range []uint64{
		uint64(c.Kind), c.At,
		uint64(c.Addr.Rank), uint64(c.Addr.Group), uint64(c.Addr.Bank), uint64(c.Addr.Row), uint64(c.Addr.Col),
		uint64(c.FlatBank), uint64(c.Channel), c.Line, c.DataStart, c.DataEnd,
	} {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	d.h.Write(buf[:])
	d.n++
}

// commandDigestRuns are every profile golden run; the SPEC-like suite at
// 1,500 requests under each perf scheme on each builtin profile; and
// DDR4 under each perf scheme on both F14-shape traces at two and three
// ranks (three maps by division), with three channels (the bus split
// divides) and with a closed page.
func commandDigestRuns() []goldenRun {
	runs := profileGoldenRuns()
	suite := trace.SPECLike(1500)
	for _, id := range memsim.ProfileIDs() {
		prof := memsim.MustProfile(id)
		for _, s := range experiments.PerfSchemes() {
			for _, wl := range suite {
				cfg := prof.Config()
				cfg.Cost = s.Cost()
				runs = append(runs, goldenRun{"spec/" + id + "/" + s.Name() + "/" + wl.Name, cfg, wl})
			}
		}
	}
	traces := []trace.Workload{
		f14Trace(trace.PoissonArrival, 0.35, 303),
		f14Trace(trace.BurstyArrival, 0.20, 304),
	}
	variants := []struct {
		name, spec string
		ranks      int
	}{
		{"ranks=2", "ddr4-2400", 2},
		{"ranks=3", "ddr4-2400", 3},
		{"channels=3", "ddr4-2400:channels=3", 1},
		{"policy=closed", "ddr4-2400:policy=closed", 1},
	}
	for _, v := range variants {
		prof := memsim.MustProfile(v.spec)
		for _, s := range experiments.PerfSchemes() {
			for _, wl := range traces {
				cfg := prof.Config()
				cfg.Ranks = v.ranks
				cfg.Cost = s.Cost()
				runs = append(runs, goldenRun{"ddr4-2400/" + v.name + "/" + s.Name() + "/" + wl.Name, cfg, wl})
			}
		}
	}
	return runs
}

func digestOf(r goldenRun) commandDigest {
	d := &digestObserver{h: fnv.New64a()}
	r.cfg.Observer = d
	res := memsim.MustRun(r.cfg, r.wl)
	return commandDigest{
		Commands:        d.n,
		Digest:          fmt.Sprintf("%016x", d.h.Sum64()),
		P999ReadLatency: res.ReadLatency.Percentile(99.9),
	}
}

// TestCommandStreamDigests runs every digest run and requires its
// command count, command digest and p99.9 read latency to equal the
// pinned ones.
func TestCommandStreamDigests(t *testing.T) {
	raw, err := os.ReadFile(commandDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]commandDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	runs := commandDigestRuns()
	if len(want) != len(runs) {
		t.Errorf("%s has %d rows, the test %d runs", commandDigestFile, len(want), len(runs))
	}
	for _, r := range runs {
		w, ok := want[r.name]
		if !ok {
			t.Errorf("%s: no digest row", r.name)
			continue
		}
		if got := digestOf(r); got != w {
			t.Errorf("%s:\n got  %+v\n want %+v", r.name, got, w)
		}
	}
}
