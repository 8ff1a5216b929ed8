package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite reference.json from the current program")

// TestWriteReference regenerates reference.json from one untraced pass
// of every workload at the default seed. It runs only with -update.
func TestWriteReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite reference.json")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"workloads\": {", defaultSeed)
	for wi, w := range workloads {
		inst, err := w.setup(config{workload: w.name, seed: defaultSeed, dir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := inst.pass()
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if wi > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    %q: {", w.name)
		for ki, key := range sortedKeys(pr.out) {
			if ki > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n      %q: %s", key, pr.out[key])
		}
		b.WriteString("\n    }")
	}
	b.WriteString("\n  }\n}\n")
	if _, err := parseReference([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runBench runs the benchmark in-process and decodes its last stdout line.
func runBench(t *testing.T, dir string, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "--dir", dir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestTinyRunsPassTheGate runs one pass of every workload at the
// default seed (checked against the stored reference) and one traced
// pass at another seed (checked by the seed-free comparisons), and
// checks each reports exactly its declared metrics.
func TestTinyRunsPassTheGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, c := range []struct {
				seed, trace string
				defs        []metricDef
			}{{"1", "0", endToEnd}, {"2", "1", perLayer}} {
				res := runBench(t, t.TempDir(), "--workload", w.name, "--seed", c.seed, "--seconds", "0", "--trace", c.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("seed %s trace %s: correct=%v attempted=%d failed=%d", c.seed, c.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(c.defs) {
					t.Errorf("seed %s trace %s: %d metrics, want %d", c.seed, c.trace, len(res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("seed %s trace %s: metric %s = %+v, want unit %s", c.seed, c.trace, d.name, m, d.unit)
					}
					if c.trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestCorruptedReferenceFails shows the gate fires: one wrong reference
// value makes exactly one operation of a one-pass run fail.
func TestCorruptedReferenceFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for k, v := range ref["mc-scenarios"] {
		want[k] = v
	}
	want[sortedKeys(want)[0]] = "[-1,0,0,0]"
	w, _ := lookupWorkload("mc-scenarios")
	res, err := runWorkload(w, config{workload: w.name, seed: defaultSeed, dir: t.TempDir()}, want, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d, want one failed operation", res.Correct, res.Failed, res.Attempted)
	}
}

// TestFleetLeavesNothingBehind checks that a traced fleet run, with its
// repeated set-ups, removes its state directories and stops every
// goroutine it started.
func TestFleetLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	runBench(t, dir, "--workload", "fleet", "--seconds", "0", "--trace", "1")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "fleet-") {
			t.Errorf("state directory %s left behind", e.Name())
		}
	}
	// Closed connections' goroutines exit asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines left behind (%d before)\n%s", n-before, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with the workloads and metrics this program defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", got, want)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.what, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestSelfTimes checks the attribution rule: a span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.add(spanCell, -1, 0, 0, 100)
	tr.add(spanShard, root, 0, 10, 50)  // overlaps the next child
	tr.add(spanShard, root, 0, 40, 70)  // union so far: [10,70)
	tr.add(spanShard, root, 0, 90, 120) // clipped to [90,100)
	leaf := tr.add(spanRNG, 1, 0, 20, 30)
	self := tr.selfTimes()
	for id, want := range map[int32]int64{root: 30, 1: 30, 2: 30, 3: 30, leaf: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}
