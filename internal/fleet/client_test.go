package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pair/internal/failpoint"
)

// fastClientOptions keeps retry sleeps out of the test wall clock.
func fastClientOptions() ClientOptions {
	return ClientOptions{
		Retries:   4,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
	}
}

// startCoordServer boots a journal-less coordinator behind a
// request-counting httptest server.
func startCoordServer(t *testing.T, opts CoordinatorOptions) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		coord.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

func singleShardSpec() JobSpec {
	return JobSpec{
		Namespace: testNamespace,
		Schemes:   []string{"none"},
		Scenarios: []string{"cell"},
		Trials:    testShardSize,
		ShardSize: testShardSize,
		Seed:      testSeed,
	}
}

// TestClientRetriesTransientServerFaults: 500s from the coordinator are
// absorbed by the retry budget; the caller sees only the eventual
// success.
func TestClientRetriesTransientServerFaults(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("transient"), Times: 2})
	requests.Store(0)
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status with 2 injected 500s: %v", err)
	}
	if st.ID != id {
		t.Fatalf("status returned job %q, want %q", st.ID, id)
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("status took %d requests, want 3 (two 500s + success)", n)
	}
}

// TestClientRetriesDroppedRequests: a connection aborted before any
// response bytes — a dropped request on the wire — is a transport error
// and is retried.
func TestClientRetriesDroppedRequests(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failpoint.Arm(FailpointCoordDrop, failpoint.Action{Err: errors.New("dropped"), Times: 2})
	if _, err := client.Status(ctx, id); err != nil {
		t.Fatalf("status with 2 dropped requests: %v", err)
	}
	if fired := failpoint.Fired(FailpointCoordDrop); fired != 2 {
		t.Errorf("drop failpoint fired %d times, want 2", fired)
	}
}

// TestClientRetriesTransportFaults: client-side network failures (the
// request never leaves) retry the same way.
func TestClientRetriesTransportFaults(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failpoint.Arm(FailpointClientRequest, failpoint.Action{Err: errors.New("cable pulled"), Times: 2})
	if _, err := client.Status(ctx, id); err != nil {
		t.Fatalf("status with 2 client-side faults: %v", err)
	}
}

// TestClientPermanentErrorsNotRetried: a 4xx is an answer, not a fault —
// exactly one request goes out.
func TestClientPermanentErrorsNotRetried(t *testing.T) {
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	requests.Store(0)
	if _, err := client.Status(ctx, "j999"); err == nil {
		t.Fatal("status of unknown job succeeded, want 404 error")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("404 took %d requests, want 1 (permanent errors are not retried)", n)
	}
}

// TestClientSubmitNotRetried: Submit is not idempotent, so even a
// retryable fault ends it after one attempt.
func TestClientSubmitNotRetried(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("transient"), Times: 1})
	requests.Store(0)
	if _, err := client.Submit(ctx, singleShardSpec()); err == nil {
		t.Fatal("submit through an injected 500 succeeded, want error")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("submit took %d requests, want 1 (submissions must not be retried)", n)
	}
}

// TestClientRequestTimeout: a stalled coordinator cannot hang the
// client — the per-request timeout fires and surfaces as an error.
func TestClientRequestTimeout(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, ClientOptions{
		Timeout: 50 * time.Millisecond,
		Retries: -1, // single attempt: this test is about the timeout
	})
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Delay: 500 * time.Millisecond, Times: 1})
	start := time.Now()
	_, err := client.Status(ctx, "j1")
	if err == nil {
		t.Fatal("status against a stalled coordinator succeeded, want timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("timed out after %v, want well under the 500ms stall", elapsed)
	}
}

// TestClientRetryBudgetExhausted: when every attempt answers 500, the
// final error carries the server's answer and the budget is respected.
func TestClientRetryBudgetExhausted(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("down hard")})
	requests.Store(0)
	_, err := client.Status(ctx, "j1")
	if err == nil || !strings.Contains(err.Error(), "down hard") {
		t.Fatalf("status = %v, want the injected 500 surfaced", err)
	}
	if n := requests.Load(); n != 4 {
		t.Errorf("exhausting the budget took %d requests, want 4", n)
	}
}

// TestWatchReconnectsAndDedups: an SSE connection severed mid-job is
// transparently reconnected; replayed events are deduplicated by id,
// the terminal "done" always arrives, and event ids are strictly
// increasing across the reconnect.
func TestWatchReconnectsAndDedups(t *testing.T) {
	srv, _ := startCoordServer(t, CoordinatorOptions{LeaseTTL: time.Minute})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var mu sync.Mutex
	var events []Event
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- client.Watch(ctx, id, func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
	}()

	// Let the watcher attach, then cut every client connection — the
	// SSE stream dies mid-job and Watch must reconnect on its own.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0
	}, "initial snapshot")
	srv.CloseClientConnections()

	// Finish the job through the lease API; the reconnected watcher
	// must still observe the terminal event.
	lease, err := client.Lease(ctx, "w")
	if err != nil || lease == nil {
		t.Fatalf("lease: %v (lease=%v)", err, lease)
	}
	if _, err := client.Complete(ctx, lease.ID, CompleteRequest{Worker: "w", Fragment: []byte(`[30,0,0,0]`)}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	var lastID uint64
	doneCount := 0
	for i, ev := range events {
		if ev.Name == "done" {
			doneCount++
			continue
		}
		if ev.ID <= lastID {
			t.Errorf("event %d (%s) id %d not above predecessor %d: replay leaked through dedup", i, ev.Name, ev.ID, lastID)
		}
		lastID = ev.ID
	}
	if doneCount != 1 {
		t.Errorf("watcher saw %d done events, want exactly 1", doneCount)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// oneEventTransport answers every request with an SSE stream that
// carries one progress event and then ends.
type oneEventTransport struct{}

func (oneEventTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"text/event-stream"}},
		Body:       io.NopCloser(strings.NewReader("id: 1\nevent: progress\ndata: {}\n\n")),
		Request:    req,
	}, nil
}

// TestWatchCancelledAsStreamEnds: when the caller cancels while a
// stream is closing, Watch reports the cancellation, not the stream's
// end — the documented contract callers test with errors.Is.
func TestWatchCancelledAsStreamEnds(t *testing.T) {
	client := NewClientWith("http://stub", ClientOptions{HTTP: &http.Client{Transport: oneEventTransport{}}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	err := client.Watch(ctx, "j1", func(Event) {
		events++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("watch cancelled during its stream = %v, want context.Canceled", err)
	}
	if events != 1 {
		t.Errorf("watch delivered %d events, want 1", events)
	}
}

// TestSubmitOversizedPairSpecIsBadRequest: a scheme spec whose code
// cannot exist (more than 255 symbols) is a client error the
// coordinator answers with 400, not a handler panic.
func TestSubmitOversizedPairSpecIsBadRequest(t *testing.T) {
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	for _, scheme := range []string{"pair:exp=300", "pair:base=240"} {
		spec := singleShardSpec()
		spec.Schemes = []string{scheme}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit %s: %v", scheme, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d (%s), want 400", scheme, resp.StatusCode, msg)
		}
	}
}
