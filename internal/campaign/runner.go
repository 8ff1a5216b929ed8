package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"pair/internal/failpoint"
)

// Failpoint names the campaign engine evaluates, exported so tests can
// arm them by name. Disarmed they are zero-cost no-ops; see
// internal/failpoint.
const (
	// FailpointShard is hit at the start of every shard attempt: an
	// error action fails the attempt, a panic action crashes it (and is
	// recovered like any shard panic), a delay action stalls it for the
	// watchdog.
	FailpointShard = "campaign/shard"
	// FailpointMkdir, FailpointRead, FailpointWrite, FailpointFsync and
	// FailpointRename stand in for the checkpoint I/O syscalls they
	// precede; an error action makes the guarded operation fail without
	// touching the filesystem. The last three guard every
	// WriteFileAtomic, the fleet coordinator's job files included.
	FailpointMkdir  = "campaign/checkpoint/mkdir"
	FailpointRead   = "campaign/checkpoint/read"
	FailpointWrite  = "campaign/checkpoint/write"
	FailpointFsync  = "campaign/checkpoint/fsync"
	FailpointRename = "campaign/checkpoint/rename"
)

// Run executes a campaign: every shard runs fn with the shard's derived
// RNG and trial count, and the per-shard results are folded with merge in
// ascending shard order, so the aggregate is bit-identical regardless of
// worker count or completion order. The result type must round-trip
// through encoding/json when checkpointing is enabled.
//
// On context cancellation Run stops dispatching new shards, lets
// in-flight shards finish (recording them in the checkpoint, so no work
// is lost), and returns the context's error. A later Run with
// Options.Resume picks up exactly where the campaign stopped.
//
// Run survives its own failures. A shard whose function panics is
// recovered (with the shard's label, index, seed and stack captured),
// re-attempted up to Options.Retries times, and — if every attempt
// fails — reported as a *ShardError inside the returned *RunError while
// every other shard keeps running: the first return value then holds
// the partial aggregate of the shards that completed. Transient
// checkpoint I/O errors are retried with exponential backoff and
// degrade to memory-only checkpointing when the budget is exhausted;
// they never abort the campaign.
func Run[T any](ctx context.Context, spec Spec, opts Options, fn func(rng *rand.Rand, trials int) T, merge func(agg *T, shard T)) (T, error) {
	var zero T
	if spec.Trials < 0 {
		return zero, fmt.Errorf("campaign %q: negative trial count %d", spec.Label, spec.Trials)
	}
	spec.Label = JoinLabel(opts.Namespace, spec.Label)
	n := spec.NumShards()
	results := make([]T, n)
	done := make([]bool, n)

	var ckpt *Checkpoint
	if opts.CheckpointDir != "" {
		var err error
		if ckpt, err = OpenCheckpoint(opts.CheckpointDir, spec, opts); err != nil {
			return zero, err
		}
	}
	opts.Progress.AddCampaign(n, spec.Trials)
	completed := 0
	if ckpt != nil {
		err := ckpt.Fold(func(i int, raw json.RawMessage) error {
			if err := json.Unmarshal(raw, &results[i]); err != nil {
				if !opts.Salvage {
					return fmt.Errorf("corrupt payload in checkpoint: %w (rerun with salvage to recompute it)", err)
				}
				// Salvage: the payload is syntactically valid JSON
				// but not a result of this campaign's type — drop
				// it and recompute the shard.
				ckpt.drop(i)
				results[i] = zero
				opts.Report.Warningf(opts.Warnf, "campaign %q: dropping corrupt shard %d payload (%v); recomputing", spec.Label, i, err)
				return nil
			}
			done[i] = true
			opts.Progress.ShardResumed(spec.Shard(i).Trials)
			completed++
			return nil
		})
		if err != nil {
			return zero, err
		}
	}
	pending := make([]int, 0, n-completed)
	for i := range done {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	var failures []*ShardError
	if len(pending) > 0 {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(pending) {
			workers = len(pending)
		}

		idxCh := make(chan int)
		go func() {
			defer close(idxCh)
			for _, i := range pending {
				select {
				case idxCh <- i:
				case <-ctx.Done():
					return
				}
			}
		}()

		var wg sync.WaitGroup
		var mu sync.Mutex // serializes checkpoint writes, callbacks, failures
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					sh := spec.Shard(i)
					res, serr := runShard(spec.Label, sh, opts, fn)
					if serr != nil {
						opts.Report.AddShardError(serr)
						opts.Progress.ShardFailed(sh.Trials)
						mu.Lock()
						failures = append(failures, serr)
						mu.Unlock()
						continue
					}
					results[i] = res
					done[i] = true
					opts.Progress.ShardDone(sh.Trials)
					mu.Lock()
					completed++
					if ckpt != nil {
						raw, err := json.Marshal(res)
						if err == nil {
							_, err = ckpt.Record(i, raw)
						}
						if err != nil {
							ckpt.degrade("recording shard %d: %v", i, err)
						}
					}
					if opts.OnShardDone != nil {
						opts.OnShardDone(completed, n)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	// Merge whatever completed, ascending: on a clean run this is the
	// full aggregate; with failed shards it is the partial result that
	// accompanies the RunError.
	var agg T
	for i := 0; i < n; i++ {
		if done[i] {
			merge(&agg, results[i])
		}
	}

	if err := ctx.Err(); err != nil && completed+len(failures) < n {
		// Cancelled with shards never attempted: the resumable
		// interruption outranks any shard defects (both stay visible
		// through Options.Report).
		return agg, err
	}
	if len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].Shard < failures[b].Shard })
		return agg, &RunError{Label: spec.Label, Failed: failures, Completed: completed, Total: n}
	}
	return agg, nil
}

// ExecShard runs exactly one shard of a campaign through the engine's
// failure machinery — panic isolation, the watchdog, the per-shard retry
// budget and the FailpointShard hook — and returns its result. It is the
// remote-execution entry point: a fleet worker holding a shard lease
// executes it through this path, so the result (and the RNG stream that
// produced it) is byte-identical to the same shard run locally by Run.
// Options.Namespace is joined onto the label exactly as Run does;
// checkpointing options are ignored (the lease's coordinator owns the
// merged checkpoint).
func ExecShard[T any](spec Spec, index int, opts Options, fn func(rng *rand.Rand, trials int) T) (T, error) {
	spec.Label = JoinLabel(opts.Namespace, spec.Label)
	sh := spec.Shard(index)
	res, serr := runShard(spec.Label, sh, opts, fn)
	if serr != nil {
		opts.Report.AddShardError(serr)
		opts.Progress.ShardFailed(sh.Trials)
		var zero T
		return zero, serr
	}
	opts.Progress.ShardDone(sh.Trials)
	return res, nil
}

// runShard executes one shard with panic isolation, the watchdog, and
// the per-shard retry budget. Every attempt reseeds the RNG from the
// shard seed, so a retry that succeeds yields a byte-identical result
// to a first-attempt success and determinism survives transient faults.
func runShard[T any](label string, sh Shard, opts Options, fn func(*rand.Rand, int) T) (T, *ShardError) {
	attempts := opts.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var zero T
	for a := 1; ; a++ {
		res, serr := attemptShard(label, sh, opts.ShardTimeout, fn)
		if serr == nil {
			return res, nil
		}
		serr.Attempts = a
		if a >= attempts {
			return zero, serr
		}
		opts.Report.AddShardRetry()
		opts.Progress.ShardRetried()
	}
}

// attemptShard makes one attempt at a shard, converting a panic in fn
// into a *ShardError carrying the recovered value and stack. With a
// positive timeout the attempt runs under a watchdog: an attempt that
// exceeds it is abandoned (its goroutine finishes in the background,
// its result is discarded) and reported as ErrShardTimeout.
func attemptShard[T any](label string, sh Shard, timeout time.Duration, fn func(*rand.Rand, int) T) (T, *ShardError) {
	type outcome struct {
		res   T
		err   error
		pan   any
		stack string
	}
	run := func() (out outcome) {
		defer func() {
			if p := recover(); p != nil {
				out = outcome{pan: p, stack: string(debug.Stack())}
			}
		}()
		if err := failpoint.Hit(FailpointShard); err != nil {
			return outcome{err: err}
		}
		return outcome{res: fn(rand.New(rand.NewSource(sh.Seed)), sh.Trials)}
	}

	var out outcome
	if timeout <= 0 {
		out = run()
	} else {
		ch := make(chan outcome, 1)
		go func() { ch <- run() }()
		timer := time.NewTimer(timeout)
		select {
		case out = <-ch:
			timer.Stop()
		case <-timer.C:
			out = outcome{err: fmt.Errorf("%w (%v)", ErrShardTimeout, timeout)}
		}
	}
	if out.pan == nil && out.err == nil {
		return out.res, nil
	}
	var zero T
	return zero, &ShardError{
		Label:  label,
		Shard:  sh.Index,
		Seed:   sh.Seed,
		Trials: sh.Trials,
		Panic:  out.pan,
		Stack:  out.stack,
		Err:    out.err,
	}
}
