package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"pair/internal/campaign"
	"pair/internal/failpoint"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// ID names the worker in leases and coordinator logs; "" gets a
	// generic name. The ID never influences results — shard seeds derive
	// from the campaign label and index alone.
	ID string
	// Poll is the idle wait between empty lease polls; 0 means 200ms.
	Poll time.Duration
	// Retries and ShardTimeout are the local campaign engine's per-shard
	// retry budget and watchdog (campaign.Options semantics). A shard
	// that exhausts this local budget is reported to the coordinator as
	// a permanent failure, which counts against the coordinator's own
	// re-issue budget.
	Retries      int
	ShardTimeout time.Duration
	// HTTP overrides the transport; nil gets the client default (dial
	// and request timeouts on, so a dead coordinator never hangs the
	// worker — see ClientOptions).
	HTTP *http.Client
	// RequestTimeout and HTTPRetries tune the client's transient-fault
	// layer (ClientOptions Timeout/Retries semantics; zero values mean
	// the defaults).
	RequestTimeout time.Duration
	HTTPRetries    int
	// Warnf, when non-nil, receives worker-side warnings.
	Warnf func(format string, args ...any)
}

// Worker polls a coordinator for shard leases and executes them through
// the campaign engine (campaign.ExecShard), with the same panic
// isolation, retry budget and watchdog a local run has. Each lease is
// renewed at a third of its TTL while the shard computes; a worker that
// dies simply stops renewing, and the coordinator re-issues the lease
// after the deadline.
type Worker struct {
	client *Client
	opts   WorkerOptions
}

// NewWorker returns a worker for the coordinator at base.
func NewWorker(base string, opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = "worker"
	}
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	client := NewClientWith(base, ClientOptions{
		HTTP:    opts.HTTP,
		Timeout: opts.RequestTimeout,
		Retries: opts.HTTPRetries,
		Warnf:   opts.Warnf,
	})
	return &Worker{client: client, opts: opts}
}

// parkedAfter is the consecutive-failure threshold at which a worker
// declares the coordinator unreachable and parks: it stops treating
// each poll failure as news and just keeps probing at the capped
// backoff until the coordinator answers again. A parked worker never
// exits — a coordinator restart (even two of them) looks like a pause,
// not a death.
const parkedAfter = 3

// maxPollBackoff caps the wait between failed lease polls.
const maxPollBackoff = 5 * time.Second

// Run polls for leases and executes them until ctx is cancelled, which
// is the normal shutdown path (Run then returns nil). A failed poll is
// retried on the campaign.Backoff schedule, from Poll doubling to
// maxPollBackoff, rather than killing the worker; sustained
// unreachability parks the worker (see parkedAfter).
func (w *Worker) Run(ctx context.Context) error {
	poll := campaign.Backoff{Attempts: math.MaxInt, Base: w.opts.Poll, Max: maxPollBackoff}
	for {
		var lease *Lease
		failures := 0
		_, err := poll.Retry(ctx, "poll/"+w.opts.ID, func() error {
			var err error
			lease, err = w.client.Lease(ctx, w.opts.ID)
			if err != nil && ctx.Err() == nil {
				failures++
				switch {
				case failures < parkedAfter:
					w.warnf("fleet worker %s: lease poll: %v", w.opts.ID, err)
				case failures == parkedAfter:
					w.warnf("fleet worker %s: coordinator unreachable after %d polls (%v); parking until it answers",
						w.opts.ID, failures, err)
				}
			}
			return err
		})
		if err != nil {
			return nil // ctx is done: only a cancellation ends the retries
		}
		if failures >= parkedAfter {
			w.warnf("fleet worker %s: coordinator reachable again after %d failed polls", w.opts.ID, failures)
		}
		if lease == nil {
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
			continue
		}
		w.runLease(ctx, *lease)
	}
}

// runLease executes one leased shard and reports its outcome. All
// failure modes funnel into a completion with Error — except the
// simulated-death failpoint, which abandons the lease silently so the
// coordinator only learns of it through the missed deadline.
func (w *Worker) runLease(ctx context.Context, l Lease) {
	if err := failpoint.Hit(FailpointWorkerLease); err != nil {
		w.warnf("fleet worker %s: abandoning lease %s (failpoint %s: %v)", w.opts.ID, l.ID, FailpointWorkerLease, err)
		return
	}
	stopRenew := w.startRenew(ctx, l)
	defer stopRenew()

	frag, err := w.execute(l)
	req := CompleteRequest{Worker: w.opts.ID}
	if err != nil {
		req.Error = err.Error()
		w.warnf("fleet worker %s: shard %d of %q failed: %v", w.opts.ID, l.Shard, l.Label, err)
	} else {
		req.Fragment = frag
	}
	// One request: the client already retries transport errors, 429 and
	// 5xx, and a completion lost for good is leased again after expiry
	// or a restart and recomputed byte-identically.
	res, err := w.client.Complete(ctx, l.ID, req)
	switch {
	case err != nil && ctx.Err() == nil:
		w.warnf("fleet worker %s: completing lease %s: %v", w.opts.ID, l.ID, err)
	case err == nil && res.Duplicate:
		w.warnf("fleet worker %s: shard %d of %q already merged (lease was re-issued)", w.opts.ID, l.Shard, l.Label)
	}
}

// execute rebuilds the shard kernel from the lease's spec strings and
// runs the shard. The campaign.Spec reconstructed here seeds the shard
// identically to a local run — the label travels in the lease verbatim.
func (w *Worker) execute(l Lease) (json.RawMessage, error) {
	scheme, err := schemes.New(l.Scheme)
	if err != nil {
		return nil, err
	}
	scenario, err := faults.NewScenario(l.Scenario)
	if err != nil {
		return nil, err
	}
	spec := campaign.Spec{Label: l.Label, Trials: l.Trials, ShardSize: l.ShardSize, Seed: l.Seed}
	opts := campaign.Options{
		Retries:      w.opts.Retries,
		ShardTimeout: w.opts.ShardTimeout,
		Warnf:        w.opts.Warnf,
	}
	res, err := campaign.ExecShard(spec, l.Shard, opts, reliability.ScenarioShardFn(scheme, scenario))
	if err != nil {
		return nil, err
	}
	frag, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("marshalling shard %d result: %w", l.Shard, err)
	}
	return frag, nil
}

// startRenew renews the lease at a third of its TTL until stopped. A
// renewal answered with ErrLeaseGone stops the loop — the shard result
// will then be deduplicated (or rejected as cancelled) on completion.
func (w *Worker) startRenew(ctx context.Context, l Lease) (stop func()) {
	interval := l.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.client.Renew(ctx, l.ID); err != nil {
					if err != ErrLeaseGone && ctx.Err() == nil {
						w.warnf("fleet worker %s: renewing lease %s: %v", w.opts.ID, l.ID, err)
						continue
					}
					return
				}
			}
		}
	}()
	return func() { close(done); <-finished }
}

func (w *Worker) warnf(format string, args ...any) {
	if w.opts.Warnf != nil {
		w.opts.Warnf(format, args...)
	}
}

// sleepCtx sleeps d or until ctx is done; false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
