package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cannedBench = `goos: linux
goarch: amd64
pkg: pair/internal/gf256
BenchmarkGF256Mul-8       	100000000	        10.0 ns/op	 800.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkRSEncode-8       	  500000	      2000 ns/op	      64 B/op	       2 allocs/op
PASS
ok  	pair/internal/gf256	1.234s
`

// withStubRunner swaps the go-test subprocess for canned output.
func withStubRunner(t *testing.T, out string, err error) *[]string {
	t.Helper()
	var gotArgs []string
	orig := runGoTest
	runGoTest = func(args []string, _ io.Writer) ([]byte, error) {
		gotArgs = args
		return []byte(out), err
	}
	t.Cleanup(func() { runGoTest = orig })
	return &gotArgs
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestParseBenchLines(t *testing.T) {
	results := parse(cannedBench)
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	mul := results[0]
	if mul.Name != "BenchmarkGF256Mul" || mul.Iterations != 100000000 {
		t.Fatalf("first result %+v", mul)
	}
	if mul.NsPerOp != 10.0 || mul.MBPerS != 800.0 || mul.BytesPerOp != 0 || mul.AllocsPerOp != 0 {
		t.Fatalf("metrics %+v", mul)
	}
	enc := results[1]
	if enc.NsPerOp != 2000 || enc.BytesPerOp != 64 || enc.AllocsPerOp != 2 || enc.MBPerS != 0 {
		t.Fatalf("metrics %+v", enc)
	}
}

func TestParseAveragesRepeatedRuns(t *testing.T) {
	out := `BenchmarkX-8  100  10.0 ns/op  8 B/op  1 allocs/op
BenchmarkX-8  300  30.0 ns/op  16 B/op  3 allocs/op
`
	results := parse(out)
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1 aggregated", len(results))
	}
	r := results[0]
	if r.Iterations != 200 || r.NsPerOp != 20.0 || r.BytesPerOp != 12 || r.AllocsPerOp != 2 {
		t.Fatalf("average wrong: %+v", r)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	if got := parse("PASS\nok  pair  0.1s\nrandom text\n"); len(got) != 0 {
		t.Fatalf("parsed noise as results: %+v", got)
	}
}

func TestNextSlot(t *testing.T) {
	dir := t.TempDir()
	if got, want := nextSlot(dir), filepath.Join(dir, "BENCH_0.json"); got != want {
		t.Fatalf("empty dir slot %q, want %q", got, want)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := nextSlot(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("slot after BENCH_0 is %q, want %q", got, want)
	}
}

func TestRunWritesJSON(t *testing.T) {
	gotArgs := withStubRunner(t, cannedBench, nil)
	path := filepath.Join(t.TempDir(), "bench.json")
	code, out, stderr := runCLI(t, "-out", path, "-label", "unit", "-count", "2", "-benchtime", "10x", "-pkg", "a,b")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "wrote "+path+" (2 benchmarks)") {
		t.Fatalf("stdout %q", out)
	}
	// The go test invocation must carry the flags through.
	joined := strings.Join(*gotArgs, " ")
	for _, want := range []string{"-count 2", "-benchtime 10x", "a b", "-benchmem", "-run ^$"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("go args %q missing %q", joined, want)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if f.Label != "unit" || len(f.Benchmarks) != 2 || f.GoVersion == "" {
		t.Fatalf("payload %+v", f)
	}
}

func TestRunDefaultsToNextSlot(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if code, _, stderr := runCLI(t); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatalf("default slot not written: %v", err)
	}
}

func TestRunFailsWhenGoTestFails(t *testing.T) {
	withStubRunner(t, "", errors.New("exit status 1"))
	code, _, stderr := runCLI(t, "-out", filepath.Join(t.TempDir(), "x.json"))
	if code != 1 || !strings.Contains(stderr, "benchjson: go test") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestRunFailsOnEmptyOutput(t *testing.T) {
	withStubRunner(t, "PASS\n", nil)
	code, _, stderr := runCLI(t, "-out", filepath.Join(t.TempDir(), "x.json"))
	if code != 1 || !strings.Contains(stderr, "no benchmark lines parsed") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestRunFailsOnUnwritablePath(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	code, _, stderr := runCLI(t, "-out", filepath.Join(t.TempDir(), "missing", "x.json"))
	if code != 1 || !strings.Contains(stderr, "benchjson: write") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-nope"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestListSchemes(t *testing.T) {
	code, out, _ := runCLI(t, "-list-schemes")
	if code != 0 || !strings.Contains(out, "name[@org][:key=val,...]") {
		t.Fatalf("exit %d, out:\n%s", code, out)
	}
}

// writeBaseline marshals a File with the given benchmarks to a temp path.
func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	raw, err := json.Marshal(File{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareClean(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	base := writeBaseline(t, []Result{
		{Name: "BenchmarkGF256Mul", NsPerOp: 9.0},
		{Name: "BenchmarkRSEncode", NsPerOp: 1500, BytesPerOp: 64, AllocsPerOp: 2},
	})
	code, out, stderr := runCLI(t, "-compare", base)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q, out:\n%s", code, stderr, out)
	}
	if !strings.Contains(out, "no regressions vs "+base) {
		t.Fatalf("out:\n%s", out)
	}
	// Compare mode without -out must not record a file.
	if strings.Contains(out, "wrote ") {
		t.Fatalf("compare mode wrote a file:\n%s", out)
	}
}

func TestCompareCatchesSlowdown(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	// Canned GF256Mul runs at 10 ns/op; a 4 ns baseline is a 2.5x slip.
	base := writeBaseline(t, []Result{{Name: "BenchmarkGF256Mul", NsPerOp: 4.0}})
	code, out, stderr := runCLI(t, "-compare", base)
	if code != 1 || !strings.Contains(stderr, "1 regression(s)") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "FAIL    BenchmarkGF256Mul") {
		t.Fatalf("out:\n%s", out)
	}
	// A looser threshold lets the same run pass.
	if code, _, _ := runCLI(t, "-compare", base, "-threshold", "3"); code != 0 {
		t.Fatal("threshold 3 should pass a 2.5x ratio")
	}
}

func TestCompareCatchesAllocGrowthAndMissing(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	base := writeBaseline(t, []Result{
		{Name: "BenchmarkRSEncode", NsPerOp: 2000, AllocsPerOp: 1}, // canned run has 2
		{Name: "BenchmarkGone", NsPerOp: 5},
	})
	code, out, stderr := runCLI(t, "-compare", base)
	if code != 1 || !strings.Contains(stderr, "2 regression(s)") {
		t.Fatalf("exit %d, stderr %q, out:\n%s", code, stderr, out)
	}
	if !strings.Contains(out, "FAIL    BenchmarkRSEncode: 2 allocs/op vs 1 baseline") {
		t.Fatalf("alloc growth not reported:\n%s", out)
	}
	if !strings.Contains(out, "MISSING BenchmarkGone") {
		t.Fatalf("missing benchmark not reported:\n%s", out)
	}
	// Benchmarks unknown to the baseline are informational only.
	if !strings.Contains(out, "new     BenchmarkGF256Mul") {
		t.Fatalf("new benchmark not reported:\n%s", out)
	}
}

func TestCompareWithOutStillRecords(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	base := writeBaseline(t, []Result{{Name: "BenchmarkGF256Mul", NsPerOp: 9.0}})
	path := filepath.Join(t.TempDir(), "bench.json")
	code, out, stderr := runCLI(t, "-compare", base, "-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("out:\n%s", out)
	}
}

func TestCompareBadBaseline(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	if code, _, _ := runCLI(t, "-compare", filepath.Join(t.TempDir(), "nope.json")); code != 1 {
		t.Fatal("missing baseline must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-compare", bad); code != 1 {
		t.Fatal("unparseable baseline must fail")
	}
}

func TestListProfiles(t *testing.T) {
	code, out, _ := runCLI(t, "-list-profiles")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "ddr5-4800") || !strings.Contains(out, "refresh") {
		t.Fatalf("-list-profiles output wrong:\n%s", out)
	}
}

// failingWriter fails every write, as a full disk or a closed pipe does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestStdoutWriteErrorFails(t *testing.T) {
	withStubRunner(t, cannedBench, nil)
	for _, args := range [][]string{
		{"-list-schemes"},
		{"-list-faults"},
		{"-list-profiles"},
		{"-out", filepath.Join(t.TempDir(), "bench.json")},
	} {
		var errb strings.Builder
		code := run(args, failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "benchjson: stdout: no space left on device") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 and the write error", args, code, errb.String())
		}
	}
}
