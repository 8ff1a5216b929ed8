package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sumShard is the toy campaign used throughout: each trial draws one
// int63 and the shard reports the count and sum, so any change in stream
// assignment, shard sizing or merge order shows up in the aggregate.
type sumShard struct {
	N   int   `json:"n"`
	Sum int64 `json:"sum"`
}

func sumFn(rng *rand.Rand, trials int) sumShard {
	s := sumShard{N: trials}
	for i := 0; i < trials; i++ {
		s.Sum += rng.Int63()
	}
	return s
}

func sumMerge(agg *sumShard, s sumShard) {
	agg.N += s.N
	agg.Sum += s.Sum
}

func TestSpecShardMath(t *testing.T) {
	s := Spec{Label: "x", Trials: 2500, ShardSize: 1000, Seed: 1}
	if got := s.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	if sh := s.Shard(0); sh.Trials != 1000 || sh.Index != 0 {
		t.Fatalf("shard 0 = %+v", sh)
	}
	if sh := s.Shard(2); sh.Trials != 500 {
		t.Fatalf("tail shard trials = %d, want 500", sh.Trials)
	}
	total := 0
	for i := 0; i < s.NumShards(); i++ {
		total += s.Shard(i).Trials
	}
	if total != s.Trials {
		t.Fatalf("shard trials sum to %d, want %d", total, s.Trials)
	}
	if (Spec{Trials: 0}).NumShards() != 0 {
		t.Fatal("empty campaign must have 0 shards")
	}
	if (Spec{Trials: 1}).NumShards() != 1 {
		t.Fatal("default shard size must yield 1 shard for 1 trial")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shard index did not panic")
		}
	}()
	s.Shard(3)
}

func TestShardSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for _, label := range []string{"a", "b", "coverage/pair/pin"} {
		for _, seed := range []int64{1, 2, 999} {
			for shard := 0; shard < 50; shard++ {
				k := ShardSeed(seed, label, shard)
				if prev, dup := seen[k]; dup {
					t.Fatalf("seed collision: %q and (%s,%d,%d)", prev, label, seed, shard)
				}
				seen[k] = label
			}
		}
	}
	if ShardSeed(1, "x", 0) != ShardSeed(1, "x", 0) {
		t.Fatal("ShardSeed not deterministic")
	}
}

func TestRunIndependentOfWorkerCount(t *testing.T) {
	spec := Spec{Label: "workers", Trials: 5300, ShardSize: 500, Seed: 7}
	var ref sumShard
	for _, workers := range []int{1, 2, 8, 32} {
		got, err := Run(context.Background(), spec, Options{Workers: workers}, sumFn, sumMerge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.N != spec.Trials {
			t.Fatalf("workers=%d: %d trials, want %d", workers, got.N, spec.Trials)
		}
		if workers == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d: aggregate %+v != single-worker %+v", workers, got, ref)
		}
	}
}

func TestRunZeroTrials(t *testing.T) {
	got, err := Run(context.Background(), Spec{Label: "empty"}, Options{}, sumFn, sumMerge)
	if err != nil || got.N != 0 {
		t.Fatalf("empty campaign: %+v, %v", got, err)
	}
	if _, err := Run(context.Background(), Spec{Label: "neg", Trials: -1}, Options{}, sumFn, sumMerge); err == nil {
		t.Fatal("negative trials did not error")
	}
}

func TestRunNamespaceChangesStream(t *testing.T) {
	spec := Spec{Label: "ns", Trials: 100, ShardSize: 50, Seed: 1}
	a, err := Run(context.Background(), spec, Options{Namespace: "exp1"}, sumFn, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, Options{Namespace: "exp2"}, sumFn, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different namespaces produced identical draws")
	}
}

// TestKillAndResumeByteIdentical is the core recoverability guarantee: a
// campaign cancelled mid-run and resumed from its checkpoint must produce
// byte-identical result JSON to an uninterrupted run.
func TestKillAndResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Label: "kill-resume", Trials: 8000, ShardSize: 500, Seed: 42}

	uninterrupted, err := Run(context.Background(), spec, Options{}, sumFn, sumMerge)
	if err != nil {
		t.Fatal(err)
	}

	// First run: cancel as soon as a few shards have completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Workers:       2,
		CheckpointDir: dir,
		OnShardDone: func(completed, total int) {
			if completed >= 3 {
				cancel()
			}
		},
	}
	if _, err := Run(ctx, spec, opts, sumFn, sumMerge); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	ck, err := OpenCheckpoint(dir, spec, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	ck.Fold(func(int, json.RawMessage) error { done++; return nil })
	if done < 3 || done >= spec.NumShards() {
		t.Fatalf("checkpoint holds %d shards after cancel, want partial coverage of %d", done, spec.NumShards())
	}

	// Resume: remaining shards run, aggregate matches bit-for-bit.
	var resumedFresh int
	resumeOpts := Options{
		CheckpointDir: dir,
		Resume:        true,
		OnShardDone:   func(completed, total int) { resumedFresh++ },
	}
	resumed, err := Run(context.Background(), spec, resumeOpts, sumFn, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFresh != spec.NumShards()-done {
		t.Fatalf("resume ran %d fresh shards, want %d", resumedFresh, spec.NumShards()-done)
	}
	wantJSON, _ := json.Marshal(uninterrupted)
	gotJSON, _ := json.Marshal(resumed)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("resumed JSON %s != uninterrupted %s", gotJSON, wantJSON)
	}

	// A second resume finds everything done and recomputes nothing.
	again, err := Run(context.Background(), spec, Options{CheckpointDir: dir, Resume: true,
		OnShardDone: func(int, int) { t.Fatal("fully resumed campaign ran a shard") }}, sumFn, sumMerge)
	if err != nil || again != uninterrupted {
		t.Fatalf("full resume: %+v, %v", again, err)
	}
}

func TestFreshRunOverwritesStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Label: "fresh", Trials: 300, ShardSize: 100, Seed: 3}
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	// Without Resume the run must not consume the existing checkpoint.
	ran := 0
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir,
		OnShardDone: func(int, int) { ran++ }}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	if ran != spec.NumShards() {
		t.Fatalf("fresh run executed %d shards, want %d", ran, spec.NumShards())
	}
}

func TestResumeRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Label: "shape", Trials: 200, ShardSize: 100, Seed: 1}
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Label: "shape", Trials: 200, ShardSize: 100, Seed: 2},
		{Label: "shape", Trials: 400, ShardSize: 100, Seed: 1},
		{Label: "shape", Trials: 200, ShardSize: 50, Seed: 1},
	} {
		if _, err := Run(context.Background(), bad, Options{CheckpointDir: dir, Resume: true}, sumFn, sumMerge); err == nil {
			t.Fatalf("resume with mismatched spec %+v did not error", bad)
		}
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Label: "corrupt", Trials: 100, ShardSize: 100, Seed: 1}
	path := CheckpointPath(dir, "corrupt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir, Resume: true}, sumFn, sumMerge); err == nil {
		t.Fatal("corrupt checkpoint did not error")
	}
	// Corrupt shard payloads are detected too.
	if err := os.WriteFile(path, []byte(`{"version":1,"label":"corrupt","seed":1,"trials":100,"shard_size":100,"shards":{"0":{"n":"nope"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir, Resume: true}, sumFn, sumMerge); err == nil {
		t.Fatal("corrupt shard payload did not error")
	}
	// So are a null payload, which would count as a zero result, and an
	// index outside the campaign, both under a matching header.
	spec = Spec{Label: "corrupt", Trials: 400, ShardSize: 100, Seed: 1}
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		what  string
		shard int
		raw   string
	}{
		{"null shard payload", 2, `null`},
		{"out-of-range shard", 9, `{"n":1}`},
	} {
		var f checkpointFile
		if err := json.Unmarshal(valid, &f); err != nil {
			t.Fatal(err)
		}
		f.Shards[damage.shard] = json.RawMessage(damage.raw)
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Run(context.Background(), spec, Options{CheckpointDir: dir, Resume: true}, sumFn, sumMerge); err == nil {
			t.Errorf("%s resumed without error: %+v", damage.what, got)
		}
	}
}

// Distinct labels must never share a checkpoint file. (Regression:
// sanitization used to be lossy — "a/b" and "a_b" both mapped to
// "a_b.json" — so a fresh run of one campaign silently overwrote a
// sibling's checkpoint and a later resume aborted on a label mismatch.)
func TestCheckpointPathCollisions(t *testing.T) {
	if CheckpointPath("d", "a/b") == CheckpointPath("d", "a_b") {
		t.Fatal(`labels "a/b" and "a_b" map to the same checkpoint file`)
	}
	if CheckpointPath("d", "a/b") == CheckpointPath("d", "a:b") {
		t.Fatal(`lossy labels "a/b" and "a:b" map to the same checkpoint file`)
	}
	// Lossless labels keep their historical stems: no hash suffix.
	if got := filepath.Base(CheckpointPath("d", "a_b")); got != "a_b.json" {
		t.Fatalf("lossless label stem changed: %q", got)
	}

	dir := t.TempDir()
	ctx := context.Background()
	slash := Spec{Label: "a/b", Trials: 100, ShardSize: 50, Seed: 1}
	under := Spec{Label: "a_b", Trials: 60, ShardSize: 20, Seed: 7}
	if _, err := Run(ctx, slash, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	// A fresh (non-resume) run of the sibling label must not clobber the
	// first campaign's checkpoint.
	if _, err := Run(ctx, under, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, slash, Options{CheckpointDir: dir, Resume: true}, sumFn, sumMerge); err != nil {
		t.Fatalf("resume after sibling fresh run: %v", err)
	}
}

func TestCheckpointPathSanitizes(t *testing.T) {
	p := CheckpointPath("dir", "t2/coverage/pair x16:bl8/pin")
	base := filepath.Base(p)
	if strings.ContainsAny(base, "/: ") {
		t.Fatalf("unsanitized checkpoint name %q", base)
	}
	if !strings.HasSuffix(base, ".json") {
		t.Fatalf("checkpoint name %q lacks .json", base)
	}
	if filepath.Base(CheckpointPath("d", "")) != "campaign.json" {
		t.Fatal("empty label must map to a stable default stem")
	}
}

func TestJoinLabelAndSublabel(t *testing.T) {
	if got := JoinLabel("a", "", "b", "c"); got != "a/b/c" {
		t.Fatalf("JoinLabel = %q", got)
	}
	if got := JoinLabel(); got != "" {
		t.Fatalf("JoinLabel() = %q", got)
	}
	o := Options{Namespace: "f6"}.Sublabel("exp=2")
	if o.Namespace != "f6/exp=2" {
		t.Fatalf("Sublabel namespace = %q", o.Namespace)
	}
	if (Options{}).Sublabel("x").Namespace != "x" {
		t.Fatal("Sublabel on empty namespace wrong")
	}
}

func TestProgressCountersAndSnapshot(t *testing.T) {
	p := NewProgress()
	spec := Spec{Label: "prog", Trials: 1000, ShardSize: 100, Seed: 1}
	if _, err := Run(context.Background(), spec, Options{Progress: p}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.ShardsTotal != 10 || s.ShardsDone != 10 || s.TrialsDone != 1000 || s.TrialsTotal != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.ShardsResumed != 0 || s.ETA != 0 {
		t.Fatalf("completed campaign snapshot %+v", s)
	}
	line := s.String()
	if !strings.Contains(line, "shards 10/10") || !strings.Contains(line, "trials 1000/1000") {
		t.Fatalf("snapshot string %q", line)
	}

	// Resumed shards are reported separately.
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	p2 := NewProgress()
	if _, err := Run(context.Background(), spec, Options{CheckpointDir: dir, Resume: true, Progress: p2}, sumFn, sumMerge); err != nil {
		t.Fatal(err)
	}
	s2 := p2.Snapshot()
	if s2.ShardsResumed != 10 || s2.ShardsDone != 0 || s2.TrialsResumed != 1000 {
		t.Fatalf("resumed snapshot %+v", s2)
	}
	if !strings.Contains(s2.String(), "resumed") {
		t.Fatalf("resumed snapshot string %q", s2.String())
	}
}

func TestProgressReporterEmitsFinalLine(t *testing.T) {
	p := NewProgress()
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	})
	stop := p.Report(context.Background(), w, time.Hour)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: shards 0/0") {
		t.Fatalf("reporter output %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
