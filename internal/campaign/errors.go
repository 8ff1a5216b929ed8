package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrShardTimeout marks a shard attempt abandoned by the watchdog
// (Options.ShardTimeout). The attempt's goroutine is left to finish in
// the background and its result is discarded.
var ErrShardTimeout = errors.New("shard attempt exceeded watchdog timeout")

// ShardError is the permanent failure of one shard: every attempt in
// the retry budget panicked, errored, or timed out. It carries the full
// campaign context of the shard so a defect report can reproduce it
// (the seed alone replays the shard's RNG stream).
type ShardError struct {
	Label    string // full campaign label (namespace included)
	Shard    int    // shard index within the campaign
	Seed     int64  // derived shard seed (replays the stream)
	Trials   int    // trials the shard was asked to run
	Attempts int    // attempts made (1 + retries)
	Panic    any    // panic value of the last attempt, if it panicked
	Stack    string // goroutine stack of the last panicking attempt
	Err      error  // error of the last attempt, if it failed non-panicking
}

// Error renders the failure with its reproduction context.
func (e *ShardError) Error() string {
	cause := ""
	switch {
	case e.Panic != nil:
		cause = fmt.Sprintf("panic: %v", e.Panic)
	case e.Err != nil:
		cause = e.Err.Error()
	default:
		cause = "unknown failure"
	}
	return fmt.Sprintf("campaign %q: shard %d (seed %d, %d trials) failed after %d attempt(s): %s",
		e.Label, e.Shard, e.Seed, e.Trials, e.Attempts, cause)
}

// Unwrap exposes the underlying attempt error (nil for panics).
func (e *ShardError) Unwrap() error { return e.Err }

// RunError aggregates the shard failures of one campaign run. Run
// returns it alongside the partial aggregate of the shards that did
// complete, so callers can degrade gracefully instead of losing the
// whole campaign to one defective shard.
type RunError struct {
	Label     string
	Failed    []*ShardError
	Completed int // shards that finished successfully (fresh + resumed)
	Total     int
}

// Error summarizes the run and its first failure.
func (e *RunError) Error() string {
	return fmt.Sprintf("campaign %q: %d/%d shards failed (%d completed); first: %v",
		e.Label, len(e.Failed), e.Total, e.Completed, e.Failed[0])
}

// Unwrap exposes every shard failure to errors.Is/As.
func (e *RunError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// SalvageReport describes one checkpoint-salvage operation: how many
// shard results survived a corrupted/truncated checkpoint and how many
// were dropped (unparseable, out of range, or lost to truncation).
type SalvageReport struct {
	Label     string
	Path      string
	Recovered int  // intact shards loaded
	Dropped   int  // shards present but rejected
	FromTmp   int  // of Recovered, how many came from a leftover .tmp
	HeaderOK  bool // the campaign header survived and matched the spec
}

func (s SalvageReport) String() string {
	out := fmt.Sprintf("salvaged %d shard(s) from %s", s.Recovered, s.Path)
	if s.Dropped > 0 {
		out += fmt.Sprintf(", dropped %d", s.Dropped)
	}
	if s.FromTmp > 0 {
		out += fmt.Sprintf(" (%d from leftover .tmp)", s.FromTmp)
	}
	if !s.HeaderOK {
		out += " (header unrecoverable: starting fresh)"
	}
	return out
}

// Report collects the structured defect record of one or more campaign
// runs sharing an Options value: shard failures, retry counts, salvage
// outcomes, checkpoint degradation and warnings. All methods are safe
// for concurrent use and nil-receiver safe, mirroring Progress, so a
// caller that doesn't care simply leaves Options.Report nil.
type Report struct {
	mu             sync.Mutex
	shardErrors    []*ShardError
	shardRetries   int
	ckptRetries    int
	degraded       bool
	degradedReason string
	salvages       []SalvageReport
	warnings       []string
}

// Warningf records a warning line and forwards it to sink (if
// non-nil). It is the single funnel for every degradation message the
// engine and the fleet coordinator emit, so callers see warnings live
// and in the final report alike.
func (r *Report) Warningf(sink func(string, ...any), format string, args ...any) {
	if r != nil {
		r.mu.Lock()
		r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
	if sink != nil {
		sink(format, args...)
	}
}

// AddShardError records one permanent shard failure.
func (r *Report) AddShardError(e *ShardError) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardErrors = append(r.shardErrors, e)
}

// AddShardRetry counts one re-attempt of a failed shard (for a fleet, a
// re-issued lease).
func (r *Report) AddShardRetry() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardRetries++
}

// addCheckpointRetries counts re-attempts of checkpoint I/O.
func (r *Report) addCheckpointRetries(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ckptRetries += n
}

// setDegraded records that checkpointing fell back to memory-only mode.
func (r *Report) setDegraded(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.degraded = true
	r.degradedReason = reason
}

// addSalvage records one salvage operation.
func (r *Report) addSalvage(s SalvageReport) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.salvages = append(r.salvages, s)
}

// ShardErrors returns the recorded permanent shard failures.
func (r *Report) ShardErrors() []*ShardError {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*ShardError(nil), r.shardErrors...)
}

// Retries returns (shard retries, checkpoint I/O retries).
func (r *Report) Retries() (shard, checkpoint int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shardRetries, r.ckptRetries
}

// Degraded reports whether checkpointing degraded to memory-only mode,
// and why.
func (r *Report) Degraded() (bool, string) {
	if r == nil {
		return false, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degraded, r.degradedReason
}

// Salvages returns the recorded salvage operations.
func (r *Report) Salvages() []SalvageReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SalvageReport(nil), r.salvages...)
}

// Warnings returns every warning line recorded so far.
func (r *Report) Warnings() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.warnings...)
}

// Empty reports whether nothing noteworthy happened: no failures, no
// retries, no salvage, no degradation.
func (r *Report) Empty() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.shardErrors) == 0 && r.shardRetries == 0 && r.ckptRetries == 0 &&
		!r.degraded && len(r.salvages) == 0 && len(r.warnings) == 0
}

// Summary renders the report as a short human-readable block, one item
// per line; "" when Empty.
func (r *Report) Summary() string {
	if r.Empty() {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	if r.shardRetries > 0 || r.ckptRetries > 0 {
		fmt.Fprintf(&b, "retries: %d shard, %d checkpoint I/O\n", r.shardRetries, r.ckptRetries)
	}
	for _, s := range r.salvages {
		fmt.Fprintf(&b, "%s\n", s)
	}
	if r.degraded {
		fmt.Fprintf(&b, "checkpointing degraded to memory-only: %s\n", r.degradedReason)
	}
	for _, e := range r.shardErrors {
		fmt.Fprintf(&b, "shard failure: %v\n", e)
	}
	return strings.TrimRight(b.String(), "\n")
}
