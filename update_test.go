package pair_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pair"
)

func TestUpdateMergesAndReencodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range pair.AllSchemes() {
		line := make([]byte, s.Org().LineBytes())
		rng.Read(line)
		st := pair.Encode(s, line)
		patch := []byte{0xDE, 0xAD, 0xBE, 0xEF}
		updated, err := pair.Update(s, st, 12, patch)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := append([]byte(nil), line...)
		copy(want[12:], patch)
		decoded, claim := pair.Decode(s, updated)
		if pair.Classify(want, decoded, claim) != pair.OutcomeOK {
			t.Fatalf("%s: updated line does not decode clean", s.Name())
		}
		if !bytes.Equal(decoded, want) {
			t.Fatalf("%s: merge wrong", s.Name())
		}
	}
}

func TestUpdateScrubsLatentError(t *testing.T) {
	s := pair.NewPAIR()
	line := make([]byte, 64)
	st := pair.Encode(s, line)
	st.Chips[0].Data.Flip(3, 3) // latent weak cell
	updated, err := pair.Update(s, st, 0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	decoded, claim := pair.Decode(s, updated)
	if claim != pair.ClaimClean {
		t.Fatal("latent error not scrubbed by RMW")
	}
	if decoded[0] != 1 {
		t.Fatal("patch lost")
	}
}

func TestUpdateRejectsBadRange(t *testing.T) {
	s := pair.NewPAIR()
	st := pair.Encode(s, make([]byte, 64))
	if _, err := pair.Update(s, st, 62, []byte{1, 2, 3}); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := pair.Update(s, st, -1, []byte{1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestUpdateRefusesUncorrectable(t *testing.T) {
	s := pair.NewPAIR()
	line := make([]byte, 64)
	st := pair.Encode(s, line)
	// Garble a whole chip: uncorrectable.
	for p := 0; p < 16; p++ {
		st.Chips[0].Data.SetPinSymbolPart(p, 0, byte(p)*37+1)
	}
	if _, err := pair.Update(s, st, 0, []byte{1}); err == nil {
		t.Fatal("masked write over uncorrectable line accepted")
	}
}

func TestUpdateRejectsForeignImage(t *testing.T) {
	// An IECC image has no transferred redundancy for DUO to decode: the
	// shape mismatch is an error, not a nil dereference.
	iecc, err := pair.SchemeBySpec("iecc")
	if err != nil {
		t.Fatal(err)
	}
	duo, err := pair.SchemeBySpec("duo")
	if err != nil {
		t.Fatal(err)
	}
	st := pair.Encode(iecc, make([]byte, 64))
	_, err = pair.Update(duo, st, 0, []byte{1})
	if err == nil || !strings.Contains(err.Error(), "chip 0 is shaped") {
		t.Fatalf("DUO update of an IECC image: err = %v", err)
	}
}

// TestRunExperimentFacade holds the facade to pairsim: it lists the
// experiment index's ids, and RunExperiment(id, true) returns the block
// `pairsim -exp all -quick` prints for id (its golden drops the timing
// lines, which leaves two blank lines after every block).
func TestRunExperimentFacade(t *testing.T) {
	for _, id := range []string{"t1", "t3", "t4"} {
		out, err := pair.RunExperiment(id, true)
		if err != nil || out == "" {
			t.Fatalf("RunExperiment(%q): %v", id, err)
		}
	}
	if _, err := pair.RunExperiment("zz", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	want := []string{"t1", "f1", "f2", "f1f2", "t2", "t2x", "f3", "f3x", "f4", "f5", "f6", "f7",
		"t3", "t4", "t5", "f8", "f9", "f10", "f11", "f12", "f13", "f14"}
	if got := pair.ExperimentIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExperimentIDs() = %v, want %v", got, want)
	}
	golden, err := os.ReadFile(filepath.Join("cmd", "pairsim", "testdata", "all-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t2", "f6"} {
		out, err := pair.RunExperiment(id, true)
		if err != nil {
			t.Fatalf("RunExperiment(%q): %v", id, err)
		}
		if !strings.Contains(string(golden), "\n\n"+out+"\n\n") {
			t.Fatalf("RunExperiment(%q, true) is not its block of pairsim -exp all -quick:\n%s", id, out)
		}
	}
}
