package campaign

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is the retry schedule of transient failures: checkpoint I/O
// (mkdir, write, fsync, rename, read) here, and the fleet client's
// requests, event-stream reconnects and the worker's lease polls. The
// zero value means "use defaults"; set Attempts to a negative value to
// disable retrying entirely.
type Backoff struct {
	// Attempts is the total number of tries, including the first.
	// 0 means DefaultBackoffAttempts; negative means exactly one try.
	Attempts int

	// Base is the delay before the first retry; each further retry
	// doubles it, capped at Max. 0 means 5ms.
	Base time.Duration

	// Max caps the per-retry delay. 0 means 250ms.
	Max time.Duration

	// Sleep, when non-nil, replaces the wait between tries — tests
	// inject a recording sleeper so backoff schedules are asserted
	// without wall-clock waits. The default wait ends early when the
	// context of Retry is done.
	Sleep func(time.Duration)
}

// DefaultBackoffAttempts is the checkpoint I/O retry budget used when
// Backoff.Attempts is zero: one initial try plus three retries.
const DefaultBackoffAttempts = 4

// withDefaults resolves the zero-value conventions.
func (b Backoff) withDefaults() Backoff {
	if b.Attempts == 0 {
		b.Attempts = DefaultBackoffAttempts
	}
	if b.Attempts < 1 {
		b.Attempts = 1
	}
	if b.Base <= 0 {
		b.Base = 5 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 250 * time.Millisecond
	}
	return b
}

// Retry runs op up to the attempt budget, waiting an exponentially
// growing, jittered delay between tries, and returns the number of
// retries performed and op's final error (nil on success). A done ctx
// ends the wait and Retry returns ctx.Err(). The jitter stream is
// seeded from the salt (a checkpoint label, a request path), not from
// global randomness, so a test run's schedule is reproducible while
// concurrent callers still spread their retries apart.
func (b Backoff) Retry(ctx context.Context, salt string, op func() error) (retries int, err error) {
	b = b.withDefaults()
	var jitter *rand.Rand
	delay := b.Base
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || attempt+1 >= b.Attempts {
			return attempt, err
		}
		if jitter == nil {
			jitter = rand.New(rand.NewSource(ShardSeed(int64(b.Attempts), salt, 0)))
		}
		// Full jitter on top of the exponential floor: wait in
		// [delay/2, delay), so synchronized failures decorrelate.
		d := delay/2 + time.Duration(jitter.Int63n(int64(delay/2)+1))
		if b.Sleep != nil {
			b.Sleep(d)
		} else {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return attempt, ctx.Err()
		}
		delay = min(2*delay, max(delay, b.Max))
	}
}
