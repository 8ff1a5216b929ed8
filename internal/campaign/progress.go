package campaign

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress accumulates shard/trial completion counters across every
// campaign that shares it. It is safe for concurrent use; campaigns feed
// it from their workers and reporters sample it with Snapshot. The
// counters are deliberately plain monotonic totals so they can double as
// an export surface for later metrics plumbing. The counter methods are
// nil-receiver safe; Run and ExecShard call them for local shards, the
// fleet coordinator for shards other processes computed.
type Progress struct {
	start time.Time

	totalShards   atomic.Int64
	totalTrials   atomic.Int64
	doneShards    atomic.Int64
	doneTrials    atomic.Int64
	resumedShards atomic.Int64
	resumedTrials atomic.Int64
	retriedShards atomic.Int64
	failedShards  atomic.Int64
	failedTrials  atomic.Int64
}

// NewProgress returns a Progress anchored at the current time.
func NewProgress() *Progress {
	return &Progress{start: time.Now()}
}

// AddCampaign registers a campaign's shard/trial totals.
func (p *Progress) AddCampaign(shards, trials int) {
	if p == nil {
		return
	}
	p.totalShards.Add(int64(shards))
	p.totalTrials.Add(int64(trials))
}

// ShardDone records one freshly computed shard.
func (p *Progress) ShardDone(trials int) {
	if p == nil {
		return
	}
	p.doneShards.Add(1)
	p.doneTrials.Add(int64(trials))
}

// ShardResumed records one shard skipped because its result was loaded
// from a checkpoint.
func (p *Progress) ShardResumed(trials int) {
	if p == nil {
		return
	}
	p.resumedShards.Add(1)
	p.resumedTrials.Add(int64(trials))
}

// ShardRetried records one re-attempt of a failed shard (for a fleet, a
// re-issued lease).
func (p *Progress) ShardRetried() {
	if p == nil {
		return
	}
	p.retriedShards.Add(1)
}

// ShardFailed records one shard whose retry budget was exhausted. Its
// trials are accounted separately so the remaining-work estimate (and
// therefore the ETA) converges even when shards are lost for good.
func (p *Progress) ShardFailed(trials int) {
	if p == nil {
		return
	}
	p.failedShards.Add(1)
	p.failedTrials.Add(int64(trials))
}

// Snapshot is a point-in-time view of campaign progress.
type Snapshot struct {
	ShardsDone    int64 // freshly computed this run
	ShardsResumed int64 // loaded from checkpoints
	ShardsRetried int64 // shard attempts re-run after a failure
	ShardsFailed  int64 // shards whose retry budget was exhausted
	ShardsTotal   int64
	TrialsDone    int64
	TrialsResumed int64
	TrialsFailed  int64 // trials lost to failed shards (no longer remaining work)
	TrialsTotal   int64
	Elapsed       time.Duration
	TrialsPerSec  float64       // fresh trials per wall second
	ETA           time.Duration // remaining trials at the current rate; 0 if unknown
}

// Snapshot samples the counters.
func (p *Progress) Snapshot() Snapshot {
	s := Snapshot{
		ShardsDone:    p.doneShards.Load(),
		ShardsResumed: p.resumedShards.Load(),
		ShardsRetried: p.retriedShards.Load(),
		ShardsFailed:  p.failedShards.Load(),
		ShardsTotal:   p.totalShards.Load(),
		TrialsDone:    p.doneTrials.Load(),
		TrialsResumed: p.resumedTrials.Load(),
		TrialsFailed:  p.failedTrials.Load(),
		TrialsTotal:   p.totalTrials.Load(),
		Elapsed:       time.Since(p.start),
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.TrialsPerSec = float64(s.TrialsDone) / sec
	}
	// A failed shard's trials will never complete: they leave the
	// remaining-work pool, else the ETA never converges on a run with
	// exhausted retry budgets. Clamp at zero — counters race only in the
	// direction of transient over-counting.
	if remaining := s.TrialsTotal - s.TrialsDone - s.TrialsResumed - s.TrialsFailed; remaining > 0 && s.TrialsPerSec > 0 {
		s.ETA = time.Duration(float64(remaining) / s.TrialsPerSec * float64(time.Second)).Round(time.Second)
	}
	return s
}

// String renders the snapshot as a one-line status. Failed shards count
// as accounted-for in the shards column (the FAILED annotation carries
// the caveat), so the line converges on runs that lose shards for good.
func (s Snapshot) String() string {
	out := fmt.Sprintf("shards %d/%d  trials %d/%d", s.ShardsDone+s.ShardsResumed+s.ShardsFailed, s.ShardsTotal, s.TrialsDone+s.TrialsResumed, s.TrialsTotal)
	if s.ShardsResumed > 0 {
		out += fmt.Sprintf(" (%d shards resumed)", s.ShardsResumed)
	}
	if s.ShardsRetried > 0 {
		out += fmt.Sprintf(" (%d retried)", s.ShardsRetried)
	}
	if s.ShardsFailed > 0 {
		out += fmt.Sprintf(" (%d FAILED)", s.ShardsFailed)
	}
	if s.TrialsPerSec > 0 {
		out += fmt.Sprintf("  %.0f trials/s", s.TrialsPerSec)
	}
	if s.ETA > 0 {
		out += fmt.Sprintf("  ETA %s", s.ETA)
	}
	return out
}

// Report starts a goroutine that writes a snapshot line to w every
// interval until ctx is done or the returned stop function is called.
// Either way the reporter emits one final snapshot before exiting, so
// short and cancelled runs alike still produce at least one line. Every
// write — ticks and the final line — happens on the reporter goroutine,
// so output never interleaves; stop is idempotent and returns only once
// the final line has been written.
func (p *Progress) Report(ctx context.Context, w io.Writer, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				fmt.Fprintf(w, "progress: %s\n", p.Snapshot())
				return
			case <-done:
				fmt.Fprintf(w, "progress: %s\n", p.Snapshot())
				return
			case <-t.C:
				fmt.Fprintf(w, "progress: %s\n", p.Snapshot())
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
