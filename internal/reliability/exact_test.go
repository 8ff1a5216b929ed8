package reliability

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/schemes"
	"pair/internal/stats"
)

// exactFile holds the exact small-k outcome counts: spec -> row ->
// {ok, ce, due, sdc}. Row "k=1" and "k=2" count every pattern of that
// many flipped stored bits in the line; row "k=3/chip0" counts every
// pattern of three flipped bits inside chip 0. The counts were recorded
// with the decoders as they stood before each chip was checked through
// a stored-byte syndrome table, and are never regenerated to make a
// change pass.
const exactFile = "testdata/exact_small_k.json"

// exactSpecs are the commodity schemes on ddr4x16, the set behind F1.
var exactSpecs = []string{"iecc", "xed", "duo", "pair-base", "pair"}

// exactCounts decodes every pattern of k distinct flipped stored bits
// among bits [0, span) of the zero image and counts the outcomes against
// the zero line. Every scheme is linear and decodes on the syndrome
// alone (TestZeroCodewordEquivalence), so these are the exact
// conditional outcome rates the BER sweep estimates. Workers take the
// first flipped bit in turn; the counts do not depend on the split.
func exactCounts(s ecc.Scheme, k, span int) [4]int64 {
	workers := runtime.GOMAXPROCS(0)
	parts := make([][4]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := s.NewStored()
			zero, decoded := make([]byte, s.Org().LineBytes()), make([]byte, s.Org().LineBytes())
			sts, dst, claims := []*ecc.Stored{st}, [][]byte{decoded}, make([]ecc.Claim, 1)
			idx := make([]int, k)
			// rest enumerates the flipped bits after the first in
			// increasing order and decodes each full pattern.
			var rest func(depth int)
			rest = func(depth int) {
				if depth == k {
					st.Zero()
					for _, i := range idx {
						ecc.FlipStored(st, i)
					}
					s.DecodeBatchInto(dst, sts, claims)
					parts[w][ecc.Classify(zero, decoded, claims[0])]++
					return
				}
				for i := idx[depth-1] + 1; i < span; i++ {
					idx[depth] = i
					rest(depth + 1)
				}
			}
			for first := w; first < span; first += workers {
				idx[0] = first
				rest(1)
			}
		}(w)
	}
	wg.Wait()
	var total [4]int64
	for _, p := range parts {
		MergeCounts(&total, p)
	}
	return total
}

// choose returns the binomial coefficient C(n, k) as a float.
func choose(n, k int) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// failRate returns the failure share (DUE + SDC) of outcome counts.
func failRate(c [4]int64) float64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return float64(c[ecc.OutcomeDUE]+c[ecc.OutcomeSDC]) / float64(n)
}

// TestExactSmallKOutcomes pins the exact outcome counts of every 1-bit
// and 2-bit stored-bit pattern for the commodity schemes on ddr4x16, and
// of every 3-bit pattern inside one chip for PAIR. PAIR decodes each
// chip on its own with t = 2 symbols, so three flips fail only when all
// three land on one chip: P(fail | k = 3) is P(same chip) times the
// failure share of the one-chip patterns. Those exact terms dominate F1
// at low BER, and the test requires the fixed-seed Monte-Carlo profile
// (BuildProfileCtx, 12,000 trials per k, seed 1) to hold each exact
// k = 1 and k = 2 failure rate, and PAIR's k = 3 rate, inside its Wilson
// interval.
func TestExactSmallKOutcomes(t *testing.T) {
	raw, err := os.ReadFile(exactFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][4]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	const trials = 12000
	for _, spec := range exactSpecs {
		s, err := schemes.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := s.NewStored()
		total, per := st.TotalBits(), st.Chips[0].TotalBits()
		got := map[string][4]int64{
			"k=1": exactCounts(s, 1, total),
			"k=2": exactCounts(s, 2, total),
		}
		exact := []float64{0, failRate(got["k=1"]), failRate(got["k=2"])}
		if spec == "pair" {
			got["k=3/chip0"] = exactCounts(s, 3, per)
			sameChip := float64(len(st.Chips)) * choose(per, 3) / choose(total, 3)
			exact = append(exact, sameChip*failRate(got["k=3/chip0"]))
		}
		if len(want[spec]) != len(got) {
			t.Errorf("%s: %s has %d rows, the test computes %d", spec, exactFile, len(want[spec]), len(got))
		}
		for row, g := range got {
			if w := want[spec][row]; g != w {
				t.Errorf("%s %s: exact counts %v, want %v", spec, row, g, w)
			}
		}

		prof, err := BuildProfileCtx(context.Background(), s,
			SweepConfig{MaxK: len(exact) - 1, Trials: trials, Seed: 1}, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(exact); k++ {
			fails := int64(prof.PerK[k].Fail()*trials + 0.5)
			lo, hi := stats.WilsonInterval(fails, trials)
			t.Logf("%s k=%d: exact P(fail) %.5f, Monte-Carlo %d/%d (Wilson [%.5f, %.5f])", spec, k, exact[k], fails, trials, lo, hi)
			if exact[k] < lo || exact[k] > hi {
				t.Errorf("%s k=%d: exact P(fail) %.5f outside the Monte-Carlo Wilson interval [%.5f, %.5f]", spec, k, exact[k], lo, hi)
			}
		}
	}
}
