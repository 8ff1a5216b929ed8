package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pair/internal/trace"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSingleTraceOutput(t *testing.T) {
	code, out, stderr := runCLI(t, "-name", "mix", "-requests", "100", "-reads", "0.5", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 101 {
		t.Fatalf("%d lines, want header + 100 requests", len(lines))
	}
	if !strings.HasPrefix(lines[0], "# trace mix window=8 requests=100") {
		t.Fatalf("header %q", lines[0])
	}
	ops := map[string]int{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Fatalf("malformed request line %q", l)
		}
		if f[0] != "R" && f[0] != "W" && f[0] != "M" {
			t.Fatalf("bad op in %q", l)
		}
		ops[f[0]]++
	}
	if ops["R"] == 0 || ops["W"]+ops["M"] == 0 {
		t.Fatalf("op mix %v lacks reads or writes", ops)
	}
}

func TestOutputDeterministicForSeed(t *testing.T) {
	_, a, _ := runCLI(t, "-requests", "200", "-seed", "9")
	_, b, _ := runCLI(t, "-requests", "200", "-seed", "9")
	if a != b {
		t.Fatal("same seed produced different traces")
	}
	_, c, _ := runCLI(t, "-requests", "200", "-seed", "10")
	if a == c {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestOutputRoundTripsThroughParser guards the CLI's wire format against
// the parser the simulator actually uses.
func TestOutputRoundTripsThroughParser(t *testing.T) {
	_, out, _ := runCLI(t, "-name", "rt", "-requests", "50", "-masked", "0.5")
	wl, err := trace.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("emitted trace does not parse: %v", err)
	}
	if len(wl.Reqs) != 50 || wl.Name != "rt" {
		t.Fatalf("round-trip lost data: %d reqs, name %q", len(wl.Reqs), wl.Name)
	}
}

func TestSuiteWritesFiles(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-suite", "-requests", "40", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) < 5 {
		t.Fatalf("suite wrote %d traces (%v)", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Parse(strings.NewReader(string(raw))); err != nil {
		t.Fatalf("suite trace %s does not parse: %v", files[0], err)
	}
	if !strings.Contains(stderr, "wrote ") {
		t.Fatalf("suite progress missing from stderr: %q", stderr)
	}
}

func TestSuiteBadDirFails(t *testing.T) {
	code, _, stderr := runCLI(t, "-suite", "-requests", "10", "-out", filepath.Join(t.TempDir(), "missing", "nested"))
	if code != 1 || !strings.Contains(stderr, "tracegen:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// failingWriter fails every write, as a full disk or a closed pipe does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestWriteErrorFails(t *testing.T) {
	for _, args := range [][]string{
		{"-requests", "10"},
		{"-arrival", "bursty", "-requests", "10"},
	} {
		var errb strings.Builder
		code := run(args, failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "tracegen: no space left on device") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 and the write error", args, code, errb.String())
		}
	}
}

func TestListWriteErrorFails(t *testing.T) {
	for _, mode := range []string{"-list-schemes", "-list-faults", "-list-profiles"} {
		var errb strings.Builder
		code := run([]string{mode}, failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "tracegen: no space left on device") {
			t.Fatalf("%s: exit %d, stderr %q; want exit 1 and the write error", mode, code, errb.String())
		}
	}
}

func TestUnknownPattern(t *testing.T) {
	code, _, stderr := runCLI(t, "-pattern", "zigzag")
	if code != 1 || !strings.Contains(stderr, "unknown pattern") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	code, _, _ := runCLI(t, "-nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestListSchemes(t *testing.T) {
	code, out, _ := runCLI(t, "-list-schemes")
	if code != 0 || !strings.Contains(out, "name[@org][:key=val,...]") {
		t.Fatalf("exit %d, out:\n%s", code, out)
	}
}

func TestListProfiles(t *testing.T) {
	code, out, _ := runCLI(t, "-list-profiles")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "ddr5-4800") || !strings.Contains(out, "lpddr5-6400") {
		t.Fatalf("-list-profiles output wrong:\n%s", out)
	}
}

func TestArrivalTrafficMode(t *testing.T) {
	code, out, stderr := runCLI(t, "-arrival", "poisson", "-load", "0.2", "-users", "24",
		"-name", "traffic", "-requests", "300", "-seed", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 301 {
		t.Fatalf("%d lines, want header + 300 requests", len(lines))
	}
	if !strings.HasPrefix(lines[0], "# trace traffic window=24 requests=300") {
		t.Fatalf("header %q", lines[0])
	}
	// Round-trips through the parser like every other tracegen output.
	wl, err := trace.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Window != 24 || len(wl.Reqs) != 300 {
		t.Fatalf("parsed %d reqs window %d", len(wl.Reqs), wl.Window)
	}

	if code, _, _ := runCLI(t, "-arrival", "uniform"); code != 1 {
		t.Fatalf("bad arrival accepted (exit %d)", code)
	}
}
