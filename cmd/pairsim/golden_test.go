package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// goldenRuns are the quick-scale invocations whose rendered tables are
// pinned byte for byte. Between them they run every experiment id: "all"
// prints F1 and F2 through f1f2, so the second run covers the two
// standalone sweeps and the extended-set tables.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"all-quick", []string{"-exp", "all", "-quick"}},
	{"f1-f2-t2x-f3x-quick", []string{"-exp", "f1,f2,t2x,f3x", "-quick"}},
}

// TestExperimentGoldens holds every table pairsim prints to its recorded
// text, with the wall-clock "[ID done in ...]" lines dropped. A change
// that moves a table on purpose regenerates the files with
// `go test ./cmd/pairsim -run TestExperimentGoldens -update`.
func TestExperimentGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			code, out, stderr := runCLI(t, g.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			got := stripTimings(out)
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("pairsim %v differs from %s:\n--- got\n%s", g.args, path, got)
			}
		})
	}
}

// TestExpAllAnyCase: ids are matched case-insensitively, "all" included,
// so -exp ALL prints exactly what -exp all does.
func TestExpAllAnyCase(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "ALL", "-quick")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stripTimings(out) != string(want) {
		t.Fatalf("-exp ALL differs from the -exp all golden:\n%s", out)
	}
}
