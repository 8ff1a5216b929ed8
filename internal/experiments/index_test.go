package experiments

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"pair/internal/campaign"
	"pair/internal/memsim"
)

func TestIndexIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range index {
		if e.ID == "" || e.ID != strings.ToLower(e.ID) || seen[e.ID] {
			t.Fatalf("id %q is empty, not lower-case or repeated", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.run == nil {
			t.Fatalf("%s: no title or no run function", e.ID)
		}
	}
	if got := IDs(); len(got) != len(index) || got[0] != "t1" {
		t.Fatalf("IDs() = %v", got)
	}
	if n := strings.Count(ListText(), "\n"); n != len(index) {
		t.Fatalf("ListText has %d lines, want %d", n, len(index))
	}
}

func TestSelect(t *testing.T) {
	ids := func(es []Experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}
	// "all" runs each table once: f1f2 stands for f1 and f2, and the
	// extended-set variants stay out.
	all := []string{"t1", "f1f2", "t2", "f3", "f4", "f5", "f6", "f7", "t3", "t4", "t5", "f8", "f9", "f10", "f11", "f12", "f13", "f14"}
	for _, list := range []string{"all", "ALL", " All "} {
		got, err := Select(list)
		if err != nil || !reflect.DeepEqual(ids(got), all) {
			t.Fatalf("Select(%q) = %v, %v", list, ids(got), err)
		}
	}
	got, err := Select("F3X, t1,f1f2")
	if err != nil || !reflect.DeepEqual(ids(got), []string{"f3x", "t1", "f1f2"}) {
		t.Fatalf("Select of a list = %v, %v", ids(got), err)
	}
	if _, err := Select("t1,zz"); err == nil || !strings.Contains(err.Error(), `unknown experiment "zz"`) {
		t.Fatalf("unknown id: err = %v", err)
	}
	if _, err := Lookup(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

// TestEveryExperimentRuns renders every index entry at a tiny scale, and
// checks that an entry's campaigns checkpoint under its id.
func TestEveryExperimentRuns(t *testing.T) {
	sc := ScaleFor(true, 20, 20, 200)
	if sc.Profile.Spec() != DefaultProfile {
		t.Fatalf("scale profile %s, want %s", sc.Profile.Spec(), DefaultProfile)
	}
	for _, id := range IDs() {
		e, err := Lookup(strings.ToUpper(id))
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background(), sc, campaign.Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") < 3 {
			t.Fatalf("%s rendered %q", id, out)
		}
	}

	dir := t.TempDir()
	e, _ := Lookup("f9")
	if _, err := e.Run(context.Background(), sc, campaign.Options{CheckpointDir: dir, Namespace: "other"}); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints: %v", err)
	}
	for _, f := range files {
		if !strings.HasPrefix(f.Name(), "f9_") {
			t.Fatalf("checkpoint %s is not namespaced by the experiment id", f.Name())
		}
	}
}

// TestPerfEntriesSimulateEachRunOnce counts the timing simulations of
// the performance entries through their -cmdtrace headers: one per
// workload and distinct cost model of the perf set (none shares the
// baseline's run and pair iecc's), on DDR4 and on the scale's profile,
// which on ddr4-2400 is DDR4's runs again. F4's companion tables render
// from F4's runs and F14 runs no baseline.
func TestPerfEntriesSimulateEachRunOnce(t *testing.T) {
	for _, tc := range []struct {
		id, profile string
		want        int
	}{
		{"f4", DefaultProfile, 2 * 10 * 4}, // 2 profiles x 10 workloads x (baseline, iecc, xed, duo)
		{"f5", DefaultProfile, 2 * 6 * 4},  // 2 profiles x 6 write ratios x the same 4 runs
		{"f14", DefaultProfile, 6 * 4},     // 6 load points x (none, iecc, xed, duo)
		{"f4", paperProfile, 10 * 4},
		{"f5", paperProfile, 6 * 4},
	} {
		var cmds strings.Builder
		sc := ScaleFor(true, 0, 0, 100)
		sc.Profile = memsim.MustProfile(tc.profile)
		sc.Sim.CmdTrace = &cmds
		e, err := Lookup(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), sc, campaign.Options{}); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		labels := map[string]bool{}
		for _, line := range strings.Split(cmds.String(), "\n") {
			if label, ok := strings.CutPrefix(line, "# sim "); ok {
				if labels[label] {
					t.Fatalf("%s on %s simulated %s twice", tc.id, tc.profile, label)
				}
				labels[label] = true
			}
		}
		if len(labels) != tc.want {
			t.Fatalf("%s on %s made %d simulations, want %d", tc.id, tc.profile, len(labels), tc.want)
		}
	}
}
