package reliability

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pair/internal/campaign"
	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
)

// These tests pin down the campaign engine's central guarantee at the
// reliability-API level: a (scheme, config, seed) triple fully determines
// the result — worker count, GOMAXPROCS and kill/resume boundaries must
// not leak into the numbers.

func flip3(r *rand.Rand, st *ecc.Stored) { ecc.FlipRandomStoredBits(r, st, 3) }

// detTrials spans multiple shards (DefaultShardSize = 1000) so worker
// scheduling actually has room to reorder shard completion.
const detTrials = 2500

func TestProfileIndependentOfWorkerCount(t *testing.T) {
	scheme := ecc.NewIECC(dram.DDR4x16())
	cfg := SweepConfig{MaxK: 3, Trials: detTrials, Seed: 7}
	base, err := BuildProfileCtx(context.Background(), scheme, cfg, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 16} {
		got, err := BuildProfileCtx(context.Background(), scheme, cfg, campaign.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("profile differs between 1 and %d workers:\n%+v\n%+v", w, base, got)
		}
	}
}

func TestCoverageIndependentOfGOMAXPROCS(t *testing.T) {
	scheme := core.MustNew(dram.DDR4x16(), core.DefaultConfig())
	runAt := func(procs int) CoverageResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		r, err := CoverageCtx(context.Background(), scheme, "det", detTrials, 11, flip3, nil, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if one, many := runAt(1), runAt(8); !reflect.DeepEqual(one, many) {
		t.Fatalf("coverage differs across GOMAXPROCS:\n%+v\n%+v", one, many)
	}
}

func TestLifetimeIndependentOfWorkerCount(t *testing.T) {
	cfg := LifetimeConfig{
		Scheme:         core.MustNew(dram.DDR4x16(), core.DefaultConfig()),
		Devices:        detTrials,
		PatternSamples: 60,
		Seed:           5,
		FITs: []faults.FITEntry{
			{Kind: faults.PermanentCell, Rate: 5e4},
			{Kind: faults.TransientBit, Rate: 5e4},
		},
	}
	base, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("lifetime differs between 1 and 8 workers:\n%+v\n%+v", base, got)
	}
}

// TestCoverageKillAndResume interrupts a checkpointed coverage campaign
// after its first completed shard, resumes it, and requires the resumed
// result to be byte-identical (as JSON) to an uninterrupted run.
func TestCoverageKillAndResume(t *testing.T) {
	scheme := ecc.NewIECC(dram.DDR4x16())
	dir := t.TempDir()

	uninterrupted, err := CoverageCtx(context.Background(), scheme, "resume", detTrials, 3, flip3, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = CoverageCtx(ctx, scheme, "resume", detTrials, 3, flip3, nil, campaign.Options{
		Workers:       1,
		CheckpointDir: dir,
		OnShardDone:   func(done, total int) { cancel() },
	})
	if err == nil {
		t.Fatal("interrupted campaign reported success")
	}

	resumed, err := CoverageCtx(context.Background(), scheme, "resume", detTrials, 3, flip3, nil, campaign.Options{
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}

	want, _ := json.Marshal(uninterrupted)
	got, _ := json.Marshal(resumed)
	if string(want) != string(got) {
		t.Fatalf("resumed coverage differs from uninterrupted run:\n%s\n%s", want, got)
	}
}

// TestLifetimeKillAndResume does the same for the lifetime simulation,
// whose shard payload (counts + per-year histogram) is richer.
func TestLifetimeKillAndResume(t *testing.T) {
	cfg := LifetimeConfig{
		Scheme:         ecc.NewIECC(dram.DDR4x16()),
		Devices:        detTrials,
		PatternSamples: 60,
		Seed:           9,
		FITs: []faults.FITEntry{
			{Kind: faults.PermanentCell, Rate: 5e4},
			{Kind: faults.PermanentPin, Rate: 1e4},
		},
	}
	dir := t.TempDir()

	uninterrupted, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunLifetimeCtx(ctx, cfg, campaign.Options{
		Workers:       1,
		CheckpointDir: dir,
		OnShardDone:   func(done, total int) { cancel() },
	})
	if err == nil {
		t.Fatal("interrupted campaign reported success")
	}

	resumed, err := RunLifetimeCtx(context.Background(), cfg, campaign.Options{
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}

	want, _ := json.Marshal(uninterrupted)
	got, _ := json.Marshal(resumed)
	if string(want) != string(got) {
		t.Fatalf("resumed lifetime differs from uninterrupted run:\n%s\n%s", want, got)
	}
}

// TestCoverageLabelsSaltSeedStreams guards against two campaigns with the
// same seed but different labels accidentally sharing randomness.
func TestCoverageLabelsSaltSeedStreams(t *testing.T) {
	scheme := ecc.NewIECC(dram.DDR4x16())
	a, err := CoverageCtx(context.Background(), scheme, "salt-a", detTrials, 21, flip3, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoverageCtx(context.Background(), scheme, "salt-b", detTrials, 21, flip3, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates == b.Rates {
		t.Fatalf("different labels produced identical rates %+v — seed streams not label-salted", a.Rates)
	}
}
