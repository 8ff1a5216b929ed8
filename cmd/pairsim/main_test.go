package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pair/internal/campaign"
	"pair/internal/experiments"
	"pair/internal/failpoint"
)

// runCLI invokes run with captured stdout/stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListOutput(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out != experiments.ListText() {
		t.Fatal("-list must print experiments.ListText() verbatim")
	}
	for _, want := range []string{"T1 ", "F1 ", "F1F2", "T2 ", "F3 ", "F12", "T2X", "F3X"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 15 {
		t.Fatalf("-list output suspiciously short:\n%s", out)
	}
}

func TestStaticTables(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "t1,t3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "T1: evaluated ECC configurations") {
		t.Fatalf("t1 table missing:\n%s", out)
	}
	if !strings.Contains(out, "[T1 done in") || !strings.Contains(out, "[T3 done in") {
		t.Fatalf("per-experiment timing lines missing:\n%s", out)
	}
}

func TestMonteCarloExperimentSmallScale(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "t2", "-trials", "60")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "T2: outcome by injected fault pattern (60 trials each") {
		t.Fatalf("t2 table missing or trials override ignored:\n%s", out)
	}
	if !strings.Contains(out, "pair") || !strings.Contains(out, "1-cell") {
		t.Fatalf("t2 rows missing:\n%s", out)
	}
}

func TestPerfExperimentWithChecker(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "f5", "-requests", "400", "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "F5: normalized performance") {
		t.Fatalf("f5 table missing:\n%s", out)
	}
}

func TestF4IncludesCommandMix(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "f4", "-requests", "400")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"F4: performance", "F4b: read latency", "F4c: command mix", "row hit%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("f4 output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTraceFlagWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.trace")
	code, _, stderr := runCLI(t, "-exp", "f11", "-requests", "200", "-cmdtrace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "# sim scrub-off") || !strings.Contains(got, " ACT ") {
		t.Fatalf("command trace incomplete:\n%.300s", got)
	}
}

// TestCmdTraceFileMatchesStdoutTrace runs f11 twice, with the command
// trace in a file and on stdout: the file must hold exactly the lines
// that precede the table on stdout, which is otherwise the untraced
// output.
func TestCmdTraceFileMatchesStdoutTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.trace")
	args := []string{"-exp", "f11", "-requests", "200"}
	code, plain, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr = runCLI(t, append(args, "-cmdtrace", path)...); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	code, traced, stderr := runCLI(t, append(args, "-cmdtrace", "-")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := strings.CutPrefix(traced, string(data))
	if !ok || len(data) == 0 {
		t.Fatalf("the trace file (%d bytes) is not the start of the traced stdout", len(data))
	}
	if stripTimings(rest) != stripTimings(plain) {
		t.Fatalf("traced stdout after the trace differs from the untraced run:\n%s", rest)
	}
}

// failingWriter fails every write, as a full disk or a closed pipe does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestStdoutWriteErrorFails(t *testing.T) {
	for _, args := range [][]string{
		{"-list"},
		{"-list-profiles"},
		{"-exp", "t1"},
		{"-exp", "f11", "-requests", "200", "-cmdtrace", "-"},
	} {
		var errb strings.Builder
		code := run(args, failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "pairsim: stdout: no space left on device") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 and the write error", args, code, errb.String())
		}
	}
}

func TestCmdTraceWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes:", err)
	}
	code, _, stderr := runCLI(t, "-exp", "f11", "-requests", "200", "-cmdtrace", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "pairsim: command trace:") || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and the write error", code, stderr)
	}
}

func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	code, _, stderr := runCLI(t, "-exp", "f11", "-requests", "200", "-cpuprofile", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// pprof writes a gzip-compressed profile.
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzip data: % x", data[:min(len(data), 8)])
	}
	code, _, stderr = runCLI(t, "-exp", "f11", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir"))
	if code != 1 || !strings.Contains(stderr, "pairsim:") {
		t.Fatalf("unwritable profile path: exit %d, stderr %q", code, stderr)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "zz")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestBadFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	code, _, stderr := runCLI(t, "-resume", "-exp", "t1")
	if code != 2 || !strings.Contains(stderr, "-resume requires -checkpoint") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestCheckpointAndResumeCLI runs a Monte-Carlo experiment with
// checkpointing, then re-runs it with -resume: the resumed run must load
// every shard (writing no new results) and render identical output.
func TestCheckpointAndResumeCLI(t *testing.T) {
	dir := t.TempDir()
	code, first, stderr := runCLI(t, "-exp", "f9", "-trials", "80", "-checkpoint", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files written: %v %v", files, err)
	}
	stamps := map[string]int64{}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		stamps[f] = fi.ModTime().UnixNano()
	}

	code, second, stderr := runCLI(t, "-exp", "f9", "-trials", "80", "-checkpoint", dir, "-resume")
	if code != 0 {
		t.Fatalf("resume exit %d, stderr %q", code, stderr)
	}
	stripTimings := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "[") && strings.Contains(line, "done in") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripTimings(first) != stripTimings(second) {
		t.Fatalf("resumed output differs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.ModTime().UnixNano() != stamps[f] {
			t.Fatalf("resume rewrote checkpoint %s — shards were recomputed", f)
		}
	}
}

func TestProgressFlagReports(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "f9", "-trials", "40", "-progress")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "progress: shards") {
		t.Fatalf("no progress lines on stderr: %q", stderr)
	}
}

func TestScaleFor(t *testing.T) {
	def := experiments.ScaleFor(false, 0, 0, 0)
	if def.Coverage != 20000 || def.Devices != 40000 {
		t.Fatalf("default scale %+v", def)
	}
	q := experiments.ScaleFor(true, 0, 0, 0)
	if q.Coverage != 2000 || q.Devices != 2000 || q.Requests != 4000 {
		t.Fatalf("quick scale %+v", q)
	}
	o := experiments.ScaleFor(true, 123, 456, 789)
	if o.Sweep.Trials != 123 || o.Coverage != 123 || o.Devices != 456 || o.Requests != 789 {
		t.Fatalf("override scale %+v", o)
	}
}

func TestListSchemesOutput(t *testing.T) {
	code, out, _ := runCLI(t, "-list-schemes")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"name[@org][:key=val,...]",   // the spec grammar header
		"pair", "duo-rank", "secded", // registry schemes
		"ddr5x16", "ddr4x8ecc", // organizations
		"spare",                       // the spared-PAIR option doc
		"eval", "commodity", "energy", // named sets
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list-schemes missing %q:\n%s", want, out)
		}
	}
}

// TestSchemesOverrideSpecs is the registry extensibility proof: scheme
// variants that exist nowhere in the experiment code — DDR5 PAIR and
// spared-PAIR — run through a set-driven experiment purely via -schemes
// spec strings.
func TestSchemesOverrideSpecs(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "t2", "-trials", "40",
		"-schemes", "pair@ddr5x16,pair:spare=3.7")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "pair") || !strings.Contains(out, "pair-spared") {
		t.Fatalf("override schemes missing from t2 columns:\n%s", out)
	}
	if strings.Contains(out, "iecc") {
		t.Fatalf("-schemes did not replace the default commodity set:\n%s", out)
	}
}

func TestSchemesOverrideBadSpec(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "t2", "-schemes", "quantum")
	if code != 2 || !strings.Contains(stderr, "unknown scheme") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestSalvageRequiresResume(t *testing.T) {
	code, _, stderr := runCLI(t, "-salvage", "-checkpoint", t.TempDir(), "-exp", "t1")
	if code != 2 || !strings.Contains(stderr, "-salvage requires -resume") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestNegativeRetriesRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-retries", "-1", "-exp", "t1")
	if code != 2 || !strings.Contains(stderr, "-retries must be >= 0") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestRetriesAbsorbShardPanicCLI injects a one-shot shard panic under
// the whole CLI: with the default retry budget the run completes, the
// output matches an undisturbed run, and the defect report on stderr
// accounts for the retry.
func TestRetriesAbsorbShardPanicCLI(t *testing.T) {
	defer failpoint.Reset()
	code, clean, stderr := runCLI(t, "-exp", "f9", "-trials", "80")
	if code != 0 {
		t.Fatalf("clean exit %d, stderr %q", code, stderr)
	}

	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Panic: "cli crash", Times: 1})
	code, got, stderr := runCLI(t, "-exp", "f9", "-trials", "80")
	if code != 0 {
		t.Fatalf("retried exit %d, stderr %q", code, stderr)
	}
	if stripTimings(got) != stripTimings(clean) {
		t.Fatalf("retried output differs:\n--- clean\n%s\n--- retried\n%s", clean, got)
	}
	if !strings.Contains(stderr, "campaign defect report") || !strings.Contains(stderr, "retries: 1 shard") {
		t.Fatalf("defect report missing from stderr: %q", stderr)
	}

	// With retries disabled the same panic fails the run — with a typed
	// shard failure in the defect report, not a process crash.
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Panic: "cli crash", Times: 1})
	code, _, stderr = runCLI(t, "-exp", "f9", "-trials", "80", "-retries", "0")
	if code != 1 {
		t.Fatalf("unretried panic exit %d, want 1; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "shard failure") || !strings.Contains(stderr, "cli crash") {
		t.Fatalf("shard failure missing from defect report: %q", stderr)
	}
}

// TestSalvageCLIRecoversTruncatedCheckpoint damages a checkpoint on
// disk: a plain -resume refuses it, -resume -salvage recovers the
// intact shards and reproduces the original output exactly.
func TestSalvageCLIRecoversTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	code, first, stderr := runCLI(t, "-exp", "f9", "-trials", "80", "-checkpoint", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files written: %v %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, stderr = runCLI(t, "-exp", "f9", "-trials", "80", "-checkpoint", dir, "-resume")
	if code != 1 || !strings.Contains(stderr, "salvage") {
		t.Fatalf("plain resume of damaged checkpoint: exit %d, stderr %q (want failure hinting at salvage)", code, stderr)
	}

	code, second, stderr := runCLI(t, "-exp", "f9", "-trials", "80", "-checkpoint", dir, "-resume", "-salvage")
	if code != 0 {
		t.Fatalf("salvage resume exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "salvaged") {
		t.Fatalf("salvage left no trace on stderr: %q", stderr)
	}
	if stripTimings(first) != stripTimings(second) {
		t.Fatalf("salvaged output differs:\n--- first\n%s\n--- salvaged\n%s", first, second)
	}
}

// stripTimings drops the wall-clock "[F9 done in ...]" lines so runs can
// be compared byte-for-byte.
func stripTimings(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "[") && strings.Contains(line, "done in") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}
