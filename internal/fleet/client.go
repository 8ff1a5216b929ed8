package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pair/internal/campaign"
	"pair/internal/failpoint"
)

// ErrLeaseGone marks a renewal or completion whose lease the
// coordinator no longer recognizes as held — it expired and was
// re-issued, the job was cancelled, or the shard already finished.
var ErrLeaseGone = errors.New("fleet: lease gone")

// Client-side fault-tolerance defaults. Every coordinator endpoint is a
// quick state transition, so a request that has not answered within
// DefaultRequestTimeout is treated as lost and retried — except the SSE
// stream, which is long-lived by design and only bounded by the dial
// and response-header timeouts.
const (
	// DefaultDialTimeout bounds establishing a TCP connection.
	DefaultDialTimeout = 5 * time.Second
	// DefaultRequestTimeout bounds one whole request/response exchange
	// (not the SSE stream).
	DefaultRequestTimeout = 10 * time.Second
	// DefaultClientRetries is the attempt budget for retryable requests:
	// one initial try plus three retries.
	DefaultClientRetries = 4
	// DefaultRetryBase and DefaultRetryMax bound the jittered
	// exponential backoff between retries. Network-scale values — an
	// order above the checkpoint I/O backoff — because the usual cause
	// is a coordinator restarting or a congested path, not a busy disk.
	DefaultRetryBase = 100 * time.Millisecond
	DefaultRetryMax  = 2 * time.Second
)

// ClientOptions tunes the client's transient-fault layer. The zero
// value gives sane production behavior (timeouts on by default — a dead
// coordinator must never hang a caller forever).
type ClientOptions struct {
	// HTTP overrides the transport. nil builds a client with
	// DefaultDialTimeout / DefaultRequestTimeout wired into the
	// transport — unlike http.DefaultClient, which never times out.
	HTTP *http.Client
	// Timeout caps one request/response exchange, applied per request
	// via context so the long-lived Watch stream is exempt. 0 means
	// DefaultRequestTimeout; negative disables the cap.
	Timeout time.Duration
	// Retries is the attempt budget for retryable requests (transport
	// errors, 5xx, 429). 0 means DefaultClientRetries; negative means a
	// single attempt. Submit is never retried: it is not idempotent, and
	// a retry racing a slow first attempt could register the job twice.
	Retries int
	// RetryBase and RetryMax bound the backoff between attempts
	// (exponential with full jitter, campaign.Backoff's schedule).
	// 0 means the defaults above.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Warnf, when non-nil, receives a line per retried request and per
	// Watch reconnect.
	Warnf func(format string, args ...any)
}

// Client talks to a coordinator, absorbing transient faults: requests
// time out instead of hanging, retryable failures (transport errors,
// 5xx, 429) are retried with jittered exponential backoff, and the SSE
// watch reconnects after drops, deduplicating replayed events.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions
}

// NewClientWith returns a client for the coordinator at base (e.g.
// "http://127.0.0.1:8080"); the zero ClientOptions gives the default
// fault tolerance.
func NewClientWith(base string, opts ClientOptions) *Client {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultRequestTimeout
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultClientRetries
	}
	if opts.Retries < 1 {
		opts.Retries = 1
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = DefaultRetryMax
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: DefaultDialTimeout}).DialContext,
			ResponseHeaderTimeout: DefaultRequestTimeout,
			MaxIdleConnsPerHost:   4,
		}}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, opts: opts}
}

// Submit registers a job and returns its ID. Submit is the one call the
// client never retries: registration is not idempotent, and the caller
// cannot tell a lost request from a lost response.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (string, error) {
	req, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	body, status, err := c.roundTrip(ctx, http.MethodPost, "/api/jobs", req)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", apiError(status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("fleet: decoding submit response: %w", err)
	}
	return st.ID, nil
}

// Status fetches a job's live status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	st := &JobStatus{}
	if err := c.do(ctx, http.MethodGet, "/api/jobs/"+id, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Cancel cancels a running job (terminal states are left untouched).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/api/jobs/"+id+"/cancel", struct{}{}, nil)
}

// Result fetches the merged result of a finished job; the coordinator
// answers 409 while the job still runs.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	res := &JobResult{}
	if err := c.do(ctx, http.MethodGet, "/api/jobs/"+id+"/result", nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Lease asks for one shard of work; nil without error when the
// coordinator has nothing to hand out right now. Retrying a lost lease
// response is safe: the orphaned grant simply expires and is re-issued,
// and recomputation is byte-identical.
func (c *Client) Lease(ctx context.Context, worker string) (*Lease, error) {
	req := map[string]string{"worker": worker}
	body, status, err := c.retryRoundTrip(ctx, http.MethodPost, "/api/lease", req)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	l := &Lease{}
	if err := json.Unmarshal(body, l); err != nil {
		return nil, fmt.Errorf("fleet: decoding lease: %w", err)
	}
	return l, nil
}

// Renew extends a lease's deadline; ErrLeaseGone when the coordinator
// re-issued or retired it.
func (c *Client) Renew(ctx context.Context, leaseID string) error {
	body, status, err := c.retryRoundTrip(ctx, http.MethodPost, "/api/lease/"+leaseID+"/renew", struct{}{})
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusGone:
		return ErrLeaseGone
	default:
		return apiError(status, body)
	}
}

// Complete reports a leased shard's outcome. Retrying a lost response
// is safe: the coordinator dedups completions by shard index.
func (c *Client) Complete(ctx context.Context, leaseID string, req CompleteRequest) (*CompleteResponse, error) {
	res := &CompleteResponse{}
	if err := c.do(ctx, http.MethodPost, "/api/lease/"+leaseID+"/complete", req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Watch follows a job's SSE stream, invoking onEvent for each event,
// until the stream delivers the terminal "done" event or ctx is
// cancelled. A dropped connection — including a coordinator restart —
// is reconnected with jittered backoff for as long as ctx lives, and
// events the previous connection already delivered are deduplicated by
// their SSE ids (strictly increasing across coordinator restarts;
// "done" is always delivered). Only a permanent coordinator answer
// (4xx, e.g. a restarted coordinator without a -journal directory that
// no longer knows the job) makes Watch return an error.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(Event)) error {
	var lastID uint64
	var answer error
	_, err := c.backoff(math.MaxInt).Retry(ctx, "watch/"+id, func() error {
		err := c.watchOnce(ctx, id, &lastID, onEvent)
		var pe *permanentError
		switch {
		case err == nil, ctx.Err() != nil:
			return err
		case errors.As(err, &pe):
			answer = pe.err
			return nil
		}
		c.warnf("fleet: event stream for job %s dropped (%v); reconnecting", id, err)
		return err
	})
	if answer != nil {
		return answer
	}
	return err
}

// permanentError wraps a coordinator answer that retrying cannot
// change.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// watchOnce follows one SSE connection. *lastID carries the dedup
// watermark across reconnects: events at or below it were already
// delivered by a previous connection and are suppressed, except "done",
// which must always reach the caller (a terminal snapshot re-sent after
// a reconnect may reuse the job's final event id).
func (c *Client) watchOnce(ctx context.Context, id string, lastID *uint64, onEvent func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/jobs/"+id+"/events", nil)
	if err != nil {
		return &permanentError{err}
	}
	req.Header.Set("Accept", "text/event-stream")
	if err := failpoint.Hit(FailpointClientRequest); err != nil {
		return fmt.Errorf("fleet: injected client fault: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := apiError(resp.StatusCode, body)
		if retryableStatus(resp.StatusCode) {
			return err
		}
		return &permanentError{err}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	ev := Event{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Name != "" || len(ev.Data) > 0 {
				replay := ev.ID > 0 && ev.ID <= *lastID
				if ev.ID > *lastID {
					*lastID = ev.ID
				}
				if onEvent != nil && (!replay || ev.Name == "done") {
					onEvent(ev)
				}
				if ev.Name == "done" {
					return nil
				}
			}
			ev = Event{}
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64); err == nil {
				ev.ID = n
			}
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = append(ev.Data, []byte(strings.TrimPrefix(line, "data: "))...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("fleet: event stream for job %s ended before the job finished", id)
}

// Wait blocks until the job reaches a terminal state and returns its
// result. Progress lines (the campaign.Snapshot one-liner prefixed with
// "progress: ", exactly like a local run's reporter) are written to
// progress when non-nil. The job is followed over its event stream,
// which Watch reconnects across drops and coordinator restarts.
func (c *Client) Wait(ctx context.Context, id string, progress io.Writer) (*JobResult, error) {
	err := c.Watch(ctx, id, func(ev Event) {
		if progress == nil || (ev.Name != "progress" && ev.Name != "done") {
			return
		}
		var st JobStatus
		if json.Unmarshal(ev.Data, &st) == nil && st.Progress != "" {
			fmt.Fprintf(progress, "progress: %s\n", st.Progress)
		}
	})
	if err != nil {
		return nil, err
	}
	return c.Result(ctx, id)
}

// do round-trips a JSON request with retries and decodes a 2xx response
// into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	body, status, err := c.retryRoundTrip(ctx, method, path, in)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return apiError(status, body)
	}
	if out == nil || len(body) == 0 {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("fleet: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// retryableStatus classifies coordinator answers: 5xx and 429 are
// transient (a restarting coordinator, a job file it could not write
// answered 503, a throttle); every other status is an answer, not a
// fault.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryRoundTrip retries transport errors and retryable statuses on
// the campaign.Backoff schedule (full jitter over a doubling floor,
// seeded from the request path so tests are reproducible). On budget
// exhaustion the last HTTP answer is returned for the caller to
// classify; a final transport error is returned as such.
func (c *Client) retryRoundTrip(ctx context.Context, method, path string, in any) ([]byte, int, error) {
	var req []byte
	if in != nil {
		var err error
		if req, err = json.Marshal(in); err != nil {
			return nil, 0, err
		}
	}
	var body []byte
	var status, attempt int
	_, err := c.backoff(c.opts.Retries).Retry(ctx, method+" "+path, func() error {
		attempt++
		var err error
		body, status, err = c.roundTrip(ctx, method, path, req)
		if err == nil && !retryableStatus(status) {
			return nil
		}
		if attempt < c.opts.Retries && ctx.Err() == nil {
			if err != nil {
				c.warnf("fleet: %s %s failed (attempt %d/%d): %v", method, path, attempt, c.opts.Retries, err)
			} else {
				c.warnf("fleet: %s %s answered %d (attempt %d/%d); retrying", method, path, status, attempt, c.opts.Retries)
			}
		}
		if err == nil {
			err = errRetryableStatus
		}
		return err
	})
	if err != nil && !errors.Is(err, errRetryableStatus) {
		return nil, 0, err
	}
	return body, status, nil
}

// errRetryableStatus marks an attempt answered with a retryable status.
var errRetryableStatus = errors.New("fleet: retryable status")

// backoff is the client's retry schedule with the given attempt budget.
func (c *Client) backoff(attempts int) campaign.Backoff {
	return campaign.Backoff{Attempts: attempts, Base: c.opts.RetryBase, Max: c.opts.RetryMax}
}

// roundTrip performs one request/response exchange with a JSON body
// (none when nil), bounded by the client's per-request timeout (the
// Watch stream bypasses this path).
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	if c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if err := failpoint.Hit(FailpointClientRequest); err != nil {
		return nil, 0, fmt.Errorf("fleet: injected client fault: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, 0, err
	}
	return answer, resp.StatusCode, nil
}

func (c *Client) warnf(format string, args ...any) {
	if c.opts.Warnf != nil {
		c.opts.Warnf(format, args...)
	}
}

// apiError surfaces the coordinator's {"error": ...} body.
func apiError(status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("fleet: %s (HTTP %d)", e.Error, status)
	}
	return fmt.Errorf("fleet: HTTP %d: %s", status, strings.TrimSpace(string(body)))
}
