package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const smallTrace = `# trace unit window=4 requests=6
R 1a 0
W 2b 3
M 3c 1
R 1a 0
R 4d 2
W 5e 0
`

func writeTraceFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "unit.trace")
	if err := os.WriteFile(path, []byte(smallTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestReplaySingleScheme(t *testing.T) {
	code, out, stderr := runCLI(t, "", "-scheme", "pair", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "trace unit: 3 reads, 3 writes (1 masked), window 4") {
		t.Fatalf("trace summary wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "pair") {
		t.Fatalf("result row missing:\n%s", out)
	}
	if len(strings.Fields(last)) != 8 {
		t.Fatalf("result row has wrong arity: %q", last)
	}
}

func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	code, _, stderr := runCLI(t, "", "-scheme", "pair", "-compare", "xed", "-cpuprofile", path, writeTraceFile(t))
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
	code, _, stderr = runCLI(t, "", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir"), writeTraceFile(t))
	if code != 1 || !strings.Contains(stderr, "memrun:") {
		t.Fatalf("unwritable profile path: exit %d, stderr %q", code, stderr)
	}
}

func TestCheckCleanRun(t *testing.T) {
	code, out, stderr := runCLI(t, "", "-scheme", "pair", "-check", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "check: pair clean") || !strings.Contains(out, "0 violations") {
		t.Fatalf("checker summary missing:\n%s", out)
	}
}

func TestCmdTraceToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.trace")
	code, _, stderr := runCLI(t, "", "-scheme", "none", "-cmdtrace", path, writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"# scheme none", " ACT ", " RD ", " WR "} {
		if !strings.Contains(got, want) {
			t.Fatalf("command trace missing %q:\n%s", want, got)
		}
	}
}

func TestCmdTraceToStdout(t *testing.T) {
	code, out, _ := runCLI(t, "", "-scheme", "none", "-cmdtrace", "-", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, " ACT ") || !strings.Contains(out, "# scheme none") {
		t.Fatalf("stdout command trace missing:\n%s", out)
	}
}

// failingWriter fails every write, as a full disk or a closed pipe does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestStdoutWriteErrorFails(t *testing.T) {
	for _, args := range [][]string{
		{"-list-schemes"},
		{"-scheme", "pair", "-compare", "xed", writeTraceFile(t)},
		{"-scheme", "pair", "-cmdtrace", "-", writeTraceFile(t)},
	} {
		var errb strings.Builder
		code := run(args, strings.NewReader(""), failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "memrun: stdout: no space left on device") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 and the write error", args, code, errb.String())
		}
	}
}

func TestCmdTraceWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes:", err)
	}
	code, _, stderr := runCLI(t, "", "-scheme", "pair", "-cmdtrace", "/dev/full", writeTraceFile(t))
	if code != 1 || !strings.Contains(stderr, "memrun: command trace:") || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and the write error", code, stderr)
	}
}

// TestCmdTraceFileMatchesStdoutTrace compares the command trace written
// to a file with the one written to stdout, where it precedes each
// scheme's row.
func TestCmdTraceFileMatchesStdoutTrace(t *testing.T) {
	tr := writeTraceFile(t)
	path := filepath.Join(t.TempDir(), "cmds.trace")
	if code, _, stderr := runCLI(t, "", "-scheme", "pair", "-cmdtrace", path, tr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	code, out, stderr := runCLI(t, "", "-scheme", "pair", "-cmdtrace", "-", tr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stdout: two header lines and a blank, the trace, then the row.
	lines := strings.SplitAfter(out, "\n")
	if got := strings.Join(lines[3:len(lines)-2], ""); len(data) == 0 || got != string(data) {
		t.Fatalf("stdout trace differs from the file trace:\n%s\nfile:\n%s", got, data)
	}
}

func TestBadRanksExitNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, "", "-scheme", "pair", "-ranks", "-3", writeTraceFile(t))
	if code != 1 || !strings.Contains(stderr, "memrun:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestCompareAddsSecondRow(t *testing.T) {
	code, out, _ := runCLI(t, "", "-scheme", "pair", "-compare", "none", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "\npair") || !strings.Contains(out, "\nnone") {
		t.Fatalf("compare table missing a scheme row:\n%s", out)
	}
}

func TestStdinDash(t *testing.T) {
	code, out, stderr := runCLI(t, smallTrace, "-scheme", "secded", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "secded") {
		t.Fatalf("stdin replay produced:\n%s", out)
	}
}

func TestWindowOverride(t *testing.T) {
	_, out, _ := runCLI(t, "", "-window", "16", writeTraceFile(t))
	if !strings.Contains(out, "window 16") {
		t.Fatalf("window override ignored:\n%s", out)
	}
}

func TestUnknownScheme(t *testing.T) {
	code, _, stderr := runCLI(t, "", "-scheme", "quantum", writeTraceFile(t))
	if code != 1 || !strings.Contains(stderr, "memrun:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestMissingTraceFile(t *testing.T) {
	code, _, stderr := runCLI(t, "", filepath.Join(t.TempDir(), "nope.trace"))
	if code != 1 || !strings.Contains(stderr, "memrun:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestNoArgsUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "")
	if code != 2 || !strings.Contains(stderr, "usage: memrun") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "", "-nope"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestSpecSchemes replays the trace under registry spec strings — a DDR5
// organization and a spared-PAIR variant — without any memrun-side
// knowledge of either: the spec grammar is the whole interface.
func TestSpecSchemes(t *testing.T) {
	code, out, stderr := runCLI(t, "", "-scheme", "pair@ddr5x16", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "\npair") {
		t.Fatalf("ddr5 spec row missing:\n%s", out)
	}

	code, out, stderr = runCLI(t, "", "-scheme", "pair:spare=3.7", "-compare", "pair", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "pair-spared") {
		t.Fatalf("spared-PAIR spec row missing:\n%s", out)
	}
}

func TestListSchemes(t *testing.T) {
	code, out, _ := runCLI(t, "", "-list-schemes")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "name[@org][:key=val,...]") || !strings.Contains(out, "duo-rank") {
		t.Fatalf("-list-schemes output wrong:\n%s", out)
	}
}

func TestListProfiles(t *testing.T) {
	code, out, _ := runCLI(t, "", "-list-profiles")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "ddr5-4800") || !strings.Contains(out, "name[:key=val,...]") {
		t.Fatalf("-list-profiles output wrong:\n%s", out)
	}
}

func TestProfileRunWithCheck(t *testing.T) {
	code, out, stderr := runCLI(t, "", "-scheme", "pair", "-profile", "ddr5-4800", "-check", writeTraceFile(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "check: pair clean") {
		t.Fatalf("profile-parameterized check line missing:\n%s", out)
	}
	// The DDR5 run must differ from the DDR4 default (different clock,
	// BL16): compare the cycles column.
	_, ddr4, _ := runCLI(t, "", "-scheme", "pair", writeTraceFile(t))
	if out == ddr4 {
		t.Fatal("ddr5 profile output identical to ddr4 default")
	}

	if code, _, stderr := runCLI(t, "", "-profile", "nope", writeTraceFile(t)); code != 2 || !strings.Contains(stderr, "unknown profile") {
		t.Fatalf("bad profile spec: exit %d, stderr %q", code, stderr)
	}
}
