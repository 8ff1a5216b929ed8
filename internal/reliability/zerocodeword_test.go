package reliability

import (
	"fmt"
	"math/rand"
	"testing"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/schemes"
)

// TestZeroCodewordEquivalence is the contract behind runTrials' all-zero
// codeword. A trial may skip encoding its random line only while three
// premises hold: every scheme is a linear code, its decoder acts on the
// syndrome alone, and every injector XORs in a pattern drawn from the
// RNG alone. Then an error pattern e on the encoding of line x decodes to
// x XOR (what e decodes to on the zero image), with the same claim. For
// every golden spec and every injection path a campaign uses, this runs
// two identically seeded RNGs side by side, one encoding a random line
// as campaigns once did and one on the cleared image as runTrials does,
// and checks per trial that both injectors XORed the same pattern, that
// the claims agree and that the decodes differ by exactly the line. An
// injector whose pattern depends on the stored data, such as retention
// errors that discharge only charged cells, fails here and must bring
// the encode back for itself.
func TestZeroCodewordEquivalence(t *testing.T) {
	const trials, seed = 100, 11
	for _, spec := range goldenSpecs() {
		s, err := schemes.New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			for _, p := range injectionPaths(s.Org()) {
				if err := zeroCodewordDiff(s, p.inject, trials, seed); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
			}
		})
	}
}

// injectionPath is one way a campaign corrupts a trial's image.
type injectionPath struct {
	name   string
	inject func(*rand.Rand, *ecc.Stored)
}

// injectionPaths returns every injection path of the engine: the BER
// sweep's k = 1..12 stored-bit flips, every registered scenario at its
// default options, every T2 injector and the lifetime simulation's
// device faults of every kind.
func injectionPaths(org dram.Organization) []injectionPath {
	var paths []injectionPath
	for k := 1; k <= 12; k++ {
		k := k
		paths = append(paths, injectionPath{fmt.Sprintf("k=%d", k), func(rng *rand.Rand, st *ecc.Stored) {
			ecc.FlipRandomStoredBits(rng, st, k)
		}})
	}
	for _, id := range faults.ScenarioIDs() {
		paths = append(paths, injectionPath{"scenario/" + id, ecc.ScenarioInjector(faults.MustScenario(id))})
	}
	for _, l := range StandardCoverageLabels() {
		paths = append(paths, injectionPath{"coverage/" + l.Label, l.Inject})
	}
	for k := 0; k < faults.NumKinds; k++ {
		kind := faults.Kind(k)
		paths = append(paths, injectionPath{"device/" + kind.String(), func(rng *rand.Rand, st *ecc.Stored) {
			ecc.ApplyDeviceFault(rng, st, faults.Sample(rng, kind, org))
		}})
	}
	return paths
}

// zeroCodewordDiff runs n trials of one injection path twice from the
// same seed, on the encoding of a random line and on the zero image, and
// returns the first trial where the two disagree.
func zeroCodewordDiff(s ecc.Scheme, inject func(*rand.Rand, *ecc.Stored), n int, seed int64) error {
	lineBytes := s.Org().LineBytes()
	onLine, onZero := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	line, scratch := make([]byte, lineBytes), make([]byte, lineBytes)
	dst := [][]byte{make([]byte, lineBytes), make([]byte, lineBytes)}
	clean, dirty, zero := s.NewStored(), s.NewStored(), s.NewStored()
	claims := make([]ecc.Claim, 2)
	for trial := 0; trial < n; trial++ {
		onLine.Read(line)
		s.EncodeBatchInto([]*ecc.Stored{clean, dirty}, [][]byte{line, line})
		inject(onLine, dirty)
		onZero.Read(scratch)
		zero.Zero()
		inject(onZero, zero)
		for i := range zero.Chips {
			c, d, z := clean.Chips[i].Regions(), dirty.Chips[i].Regions(), zero.Chips[i].Regions()
			for r := range z {
				for j := range z[r].Bits {
					if e := c[r].Bits[j] ^ d[r].Bits[j]; e != z[r].Bits[j] {
						return fmt.Errorf("trial %d: chip %d region %d byte %d: error pattern %#02x on a random line, %#02x on the zero image",
							trial, i, r, j, e, z[r].Bits[j])
					}
				}
			}
		}
		s.DecodeBatchInto(dst, []*ecc.Stored{dirty, zero}, claims)
		if claims[0] != claims[1] {
			return fmt.Errorf("trial %d: claim %v on a random line, %v on the zero line", trial, claims[0], claims[1])
		}
		for j, x := range line {
			if e := dst[0][j] ^ x; e != dst[1][j] {
				return fmt.Errorf("trial %d: line byte %d decodes with error %#02x on a random line, %#02x on the zero line",
					trial, j, e, dst[1][j])
			}
		}
	}
	if onLine.Int63() != onZero.Int63() {
		return fmt.Errorf("the RNGs diverged over %d trials: the injector's draws depend on the stored data", n)
	}
	return nil
}
