package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"pair/internal/failpoint"
)

// A checkpoint recorded out of order from ExecShard fragments (the
// fleet path) must be byte-identical to the one a local Run writes, and
// a local Run must resume from it.
func TestMergeMatchesLocalRunByteForByte(t *testing.T) {
	spec := Spec{Label: "merge/byte-id", Trials: 500, ShardSize: 100, Seed: 42}
	ctx := context.Background()

	localDir := t.TempDir()
	want, err := Run(ctx, spec, Options{CheckpointDir: localDir}, sumFn, sumMerge)
	if err != nil {
		t.Fatal(err)
	}

	fleetDir := t.TempDir()
	c, err := OpenCheckpoint(fleetDir, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Workers complete shards in arbitrary order; the duplicate of shard 2
	// (a re-issued lease whose original worker also finished) is dropped.
	for _, i := range []int{3, 0, 2, 4, 2, 1} {
		res, err := ExecShard(spec, i, Options{}, sumFn)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Record(i, raw); err != nil {
			t.Fatal(err)
		}
		if !c.Has(i) {
			t.Fatalf("shard %d not recorded", i)
		}
	}

	var got sumShard
	if err := c.Fold(func(i int, frag json.RawMessage) error {
		var s sumShard
		if err := json.Unmarshal(frag, &s); err != nil {
			return err
		}
		sumMerge(&got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fleet aggregate %+v != local %+v", got, want)
	}

	localBytes, err := os.ReadFile(CheckpointPath(localDir, spec.Label))
	if err != nil {
		t.Fatal(err)
	}
	fleetBytes, err := os.ReadFile(CheckpointPath(fleetDir, spec.Label))
	if err != nil {
		t.Fatal(err)
	}
	if string(localBytes) != string(fleetBytes) {
		t.Fatalf("checkpoint bytes differ:\nlocal: %s\nfleet: %s", localBytes, fleetBytes)
	}

	// And the local engine resumes from the merged checkpoint: every
	// shard loads (a recompute would change the aggregate via the
	// tripwire fn below), identical aggregate.
	resumed, err := Run(ctx, spec, Options{CheckpointDir: fleetDir, Resume: true},
		func(rng *rand.Rand, trials int) sumShard {
			return sumShard{N: -1 << 40} // tripwire: resumed runs must not recompute
		}, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != want {
		t.Fatalf("resume from merged checkpoint = %+v, want %+v", resumed, want)
	}
}

// A restarted coordinator re-opens a campaign's checkpoint with Resume
// and sees the fragments already on disk, so only missing shards are
// re-leased.
func TestMergeResumeLoadsFragments(t *testing.T) {
	spec := Spec{Label: "merge/resume", Trials: 300, ShardSize: 100, Seed: 7}
	dir := t.TempDir()
	c, err := OpenCheckpoint(dir, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err := c.Record(1, json.RawMessage(`{"n":100,"sum":1}`)); err != nil || !fresh {
		t.Fatalf("record: fresh=%v err=%v", fresh, err)
	}

	re, err := OpenCheckpoint(dir, spec, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(t, re); len(got) != 1 || got[1] == "" {
		t.Fatalf("resumed checkpoint holds %v, want shard 1 only", got)
	}
}

// stored returns the fragments c holds, by shard index.
func stored(t *testing.T, c *Checkpoint) map[int]string {
	t.Helper()
	out := map[int]string{}
	if err := c.Fold(func(i int, frag json.RawMessage) error {
		if !c.Has(i) {
			t.Errorf("Fold visited shard %d, which Has denies", i)
		}
		out[i] = string(frag)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMergeRejectsBadFragments(t *testing.T) {
	c, err := OpenCheckpoint("", Spec{Label: "merge/bad", Trials: 100, ShardSize: 100, Seed: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(5, json.RawMessage(`1`)); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := c.Record(0, json.RawMessage(`{"n":`)); err == nil {
		t.Fatal("truncated JSON fragment accepted")
	}
	if _, err := c.Record(0, json.RawMessage(`null`)); err == nil {
		t.Fatal("null fragment accepted")
	}
	if fresh, err := c.Record(0, json.RawMessage(`1`)); err != nil || !fresh {
		t.Fatalf("valid fragment rejected: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := c.Record(0, json.RawMessage(`2`)); err != nil || fresh {
		t.Fatalf("duplicate completion not deduplicated: fresh=%v err=%v", fresh, err)
	}
	if got := stored(t, c); got[0] != "1" {
		t.Fatalf("dedup must keep the first fragment, got %s", got[0])
	}
}

// A checkpoint whose writes fail for good degrades to memory-only, and
// still keeps every fragment recorded before and after: the fleet
// coordinator folds its results from the same store.
func TestDegradedCheckpointKeepsFragments(t *testing.T) {
	defer failpoint.Reset()
	failpoint.Arm(FailpointWrite, failpoint.Action{Err: errors.New("disk on fire")})
	spec := Spec{Label: "merge/degraded", Trials: 300, ShardSize: 100, Seed: 2}
	rep := new(Report)
	var mu sync.Mutex
	var sleeps []time.Duration
	c, err := OpenCheckpoint(t.TempDir(), spec, Options{Report: rep, CheckpointBackoff: fastBackoff(&sleeps, &mu)})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0, 1} {
		if fresh, err := c.Record(i, json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))); err != nil || !fresh {
			t.Fatalf("record %d: fresh=%v err=%v", i, fresh, err)
		}
	}
	if degraded, _ := rep.Degraded(); !degraded {
		t.Fatal("failing writes did not degrade the checkpoint")
	}
	if fired := failpoint.Fired(FailpointWrite); fired != DefaultBackoffAttempts {
		t.Errorf("write failpoint fired %d times, want one budget of %d: a degraded checkpoint writes no more", fired, DefaultBackoffAttempts)
	}
	if got := stored(t, c); len(got) != 3 || got[0] != `{"n":0}` || got[2] != `{"n":2}` {
		t.Fatalf("degraded checkpoint holds %v, want all three fragments", got)
	}
}

// ExecShard surfaces the engine's failure machinery: a shard whose
// attempts all fail returns the same *ShardError a local Run records.
func TestExecShardFailure(t *testing.T) {
	spec := Spec{Label: "merge/fail", Trials: 100, ShardSize: 100, Seed: 1}
	boom := func(rng *rand.Rand, trials int) sumShard { panic("shard bug") }
	_, err := ExecShard(spec, 0, Options{Retries: 1}, boom)
	serr, ok := err.(*ShardError)
	if !ok {
		t.Fatalf("want *ShardError, got %v", err)
	}
	if serr.Attempts != 2 || serr.Shard != 0 {
		t.Fatalf("ShardError = %+v, want 2 attempts on shard 0", serr)
	}
}
