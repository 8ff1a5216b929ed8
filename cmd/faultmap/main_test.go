package main

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

var symLine = regexp.MustCompile(`PAIR \(pin-aligned\) = (\d+)\s+DUO \(beat-aligned\) = (\d+)`)
var flipLine = regexp.MustCompile(`\((\d+) bits flipped\)`)

// parseMap extracts (flips, pairSyms, duoSyms) from the rendered output.
func parseMap(t *testing.T, out string) (flips, pair, duo int) {
	t.Helper()
	fm := flipLine.FindStringSubmatch(out)
	sm := symLine.FindStringSubmatch(out)
	if fm == nil || sm == nil {
		t.Fatalf("summary lines missing:\n%s", out)
	}
	flips, _ = strconv.Atoi(fm[1])
	pair, _ = strconv.Atoi(sm[1])
	duo, _ = strconv.Atoi(sm[2])
	return flips, pair, duo
}

func TestPinFaultCorruptsOnePairSymbol(t *testing.T) {
	code, out, stderr := runCLI(t, "-fault", "pin", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	flips, pair, duo := parseMap(t, out)
	// A faulty pin stays inside one pin-aligned symbol no matter how many
	// beats it corrupts, while every corrupted beat is its own DUO symbol.
	if pair != 1 {
		t.Fatalf("pin fault touched %d PAIR symbols, want 1:\n%s", pair, out)
	}
	if flips < 1 || duo != flips {
		t.Fatalf("pin fault flipped %d bits across %d DUO symbols, want equal:\n%s", flips, duo, out)
	}
	if !strings.Contains(out, "PAIR t=2: true") {
		t.Fatalf("one symbol must be PAIR-correctable:\n%s", out)
	}
	if strings.Count(out, "DQ") != 16 {
		t.Fatalf("grid must show 16 pins:\n%s", out)
	}
}

func TestBeatFaultIsTheDual(t *testing.T) {
	code, out, _ := runCLI(t, "-fault", "beat", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	flips, pair, duo := parseMap(t, out)
	// One corrupted beat: every flipped pin is its own PAIR symbol, but
	// DUO confines the damage to at most pins/8 byte symbols.
	if flips < 1 || pair != flips {
		t.Fatalf("beat fault flipped %d bits across %d PAIR symbols, want equal:\n%s", flips, pair, out)
	}
	if duo < 1 || duo > 2 {
		t.Fatalf("beat fault touched %d DUO symbols, want 1..2:\n%s", duo, out)
	}
}

func TestCellFaultFlipsOneBit(t *testing.T) {
	code, out, _ := runCLI(t, "-fault", "cell", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "(1 bits flipped)") {
		t.Fatalf("cell fault flip count wrong:\n%s", out)
	}
	m := symLine.FindStringSubmatch(out)
	if m == nil || m[1] != "1" || m[2] != "1" {
		t.Fatalf("single cell must touch one symbol on both alignments: %v", m)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	_, a, _ := runCLI(t, "-fault", "pin-burst", "-len", "4", "-seed", "7")
	_, b, _ := runCLI(t, "-fault", "pin-burst", "-len", "4", "-seed", "7")
	if a != b {
		t.Fatal("same seed produced different maps")
	}
}

func TestUnknownFault(t *testing.T) {
	code, _, stderr := runCLI(t, "-fault", "gamma-ray")
	if code != 1 || !strings.Contains(stderr, "unknown fault") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	code, _, _ := runCLI(t, "-nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestSchemeSpecSelectsOrganization maps a pin fault on the DDR5 BL16
// organization picked purely by spec: the grid doubles in depth and a
// pin fault now spans two pin-aligned symbols, needing the t=2 code.
func TestSchemeSpecSelectsOrganization(t *testing.T) {
	code, out, stderr := runCLI(t, "-scheme", "pair@ddr5x16", "-fault", "pin", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "x16 BL16") {
		t.Fatalf("DDR5 organization not shown:\n%s", out)
	}
	_, pair, _ := parseMap(t, out)
	if pair != 2 {
		t.Fatalf("BL16 pin fault touched %d pin-aligned symbols, want 2:\n%s", pair, out)
	}
	if !strings.Contains(out, "PAIR t=2: true") {
		t.Fatalf("expanded code must still correct its aligned axis:\n%s", out)
	}
}

func TestBadSchemeSpec(t *testing.T) {
	code, _, stderr := runCLI(t, "-scheme", "quantum")
	if code != 1 || !strings.Contains(stderr, "unknown scheme") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
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
	if !strings.Contains(out, "lpddr5-6400") || !strings.Contains(out, "policy") {
		t.Fatalf("-list-profiles output wrong:\n%s", out)
	}
}

// failingWriter fails every write, as a full disk or a closed pipe does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestStdoutWriteErrorFails(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-fault", "pin-burst", "-len", "4"},
		{"-faults", "retention:pop=0.02"},
		{"-list-schemes"},
		{"-list-faults"},
		{"-list-profiles"},
	} {
		var errb strings.Builder
		code := run(args, failingWriter{}, &errb)
		if code != 1 || !strings.Contains(errb.String(), "faultmap: stdout: no space left on device") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 and the write error", args, code, errb.String())
		}
	}
}
