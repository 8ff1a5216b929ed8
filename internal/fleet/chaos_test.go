package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pair/internal/campaign"
	"pair/internal/failpoint"
)

// chaosCoord is a coordinator behind a real TCP listener whose address
// survives kill/restart cycles: the first start binds an ephemeral
// port, every restart re-binds the same one, so workers configured with
// the original URL reconnect to the new incarnation on their own — the
// in-process shape of "the coordinator host came back".
type chaosCoord struct {
	t      *testing.T
	opts   CoordinatorOptions
	addr   string
	coord  *Coordinator
	srv    *http.Server
	served chan struct{}
}

func startChaosCoord(t *testing.T, opts CoordinatorOptions) *chaosCoord {
	t.Helper()
	cc := &chaosCoord{t: t, opts: opts, addr: "127.0.0.1:0"}
	cc.start()
	t.Cleanup(func() {
		cc.srv.Close()
		cc.coord.Close()
	})
	return cc
}

// start boots a fresh incarnation on the remembered address. The
// re-bind is retried briefly: the previous listener's close is
// asynchronous from the kernel's point of view.
func (cc *chaosCoord) start() {
	cc.t.Helper()
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", cc.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		cc.t.Fatalf("re-binding %s: %v", cc.addr, err)
	}
	cc.addr = ln.Addr().String()
	coord, err := NewCoordinator(cc.opts)
	if err != nil {
		ln.Close()
		cc.t.Fatalf("NewCoordinator: %v", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	cc.coord, cc.srv, cc.served = coord, srv, served
}

// kill models SIGKILL: listener and live connections die and open
// event streams are cut; nothing is shut down gracefully.
func (cc *chaosCoord) kill() {
	cc.srv.Close()
	cc.coord.Close()
	<-cc.served
}

func (cc *chaosCoord) url() string { return "http://" + cc.addr }

// TestChaosCoordinatorKillRestart is the acceptance test of the crash
// story end to end: a fleet of real workers over real TCP, the
// coordinator SIGKILLed and restarted twice mid-campaign, and the final
// result — aggregates and checkpoint bytes — identical to a
// single-process run. The workers are never restarted: surviving two
// coordinator deaths is their part of the contract.
func TestChaosCoordinatorKillRestart(t *testing.T) {
	goldenDir := t.TempDir()
	golden := runLocalGolden(t, goldenDir)
	goldenFiles := readDir(t, goldenDir)

	// Slow every shard down so both kills land mid-run, never before the
	// first shard or after the last.
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Delay: 40 * time.Millisecond})
	defer failpoint.Reset()

	dir := t.TempDir()
	cc := startChaosCoord(t, CoordinatorOptions{
		CheckpointDir: filepath.Join(dir, "ckpt"),
		JournalDir:    filepath.Join(dir, "journal"),
		LeaseTTL:      time.Minute,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(cc.url(), WorkerOptions{ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	defer func() {
		wcancel()
		wg.Wait()
	}()

	client := NewClientWith(cc.url(), fastClientOptions())
	id, err := client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	shardsDone := func() int {
		st, err := client.Status(ctx, id)
		if err != nil {
			return -1 // coordinator down or restarting; keep polling
		}
		return st.ShardsDone
	}

	waitFor(t, func() bool { return shardsDone() >= 3 }, "first shards before kill 1")
	cc.kill()
	cc.start()

	waitFor(t, func() bool { return shardsDone() >= 8 }, "more shards before kill 2")
	cc.kill()
	cc.start()

	waitFor(t, func() bool {
		st, err := client.Status(ctx, id)
		return err == nil && st.State != "running"
	}, "job completion after two coordinator kills")

	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatalf("final status: %v", err)
	}
	if st.State != "done" || st.ShardsDone != 16 || st.ShardsFailed != 0 {
		t.Fatalf("final status = %s done=%d failed=%d (%s), want done 16/0",
			st.State, st.ShardsDone, st.ShardsFailed, st.Error)
	}

	res, err := client.Result(ctx, id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Campaigns) != len(golden) {
		t.Fatalf("result has %d campaigns, want %d", len(res.Campaigns), len(golden))
	}
	for _, cr := range res.Campaigns {
		if want := golden[cr.Label]; cr.Counts != want {
			t.Errorf("campaign %q counts = %v, want %v (crash recovery changed results)", cr.Label, cr.Counts, want)
		}
		if len(cr.FailedShards) != 0 {
			t.Errorf("campaign %q lost shards %v across the restarts", cr.Label, cr.FailedShards)
		}
	}

	// The checkpoint directory is byte-identical to the local run's:
	// kills, re-issues and duplicate completions left no trace.
	fleetFiles := readDir(t, filepath.Join(dir, "ckpt"))
	if len(fleetFiles) != len(goldenFiles) {
		t.Fatalf("fleet wrote %d checkpoint files, golden wrote %d", len(fleetFiles), len(goldenFiles))
	}
	for name, want := range goldenFiles {
		if got, ok := fleetFiles[name]; !ok {
			t.Errorf("fleet checkpoint missing %s", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("checkpoint %s differs from the single-process run", name)
		}
	}
}

// TestChaosJournalFault503Retried: a job file that cannot be written
// refuses the transition it records. Submit, which the client never
// retries, fails and registers nothing. Cancel answers 503 while the
// write keeps failing, and the job keeps running; a one-off fault is
// absorbed by the client retry layer.
func TestChaosJournalFault503Retried(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{
		JournalDir: t.TempDir(),
		LeaseTTL:   time.Minute,
	})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	diskHiccup := errors.New("disk hiccup")

	failpoint.Arm(campaign.FailpointWrite, failpoint.Action{Err: diskHiccup, Times: 1})
	if _, err := client.Submit(ctx, singleShardSpec()); err == nil {
		t.Error("submit through a write fault succeeded, want error (submissions must not be retried)")
	}
	if fired := failpoint.Fired(campaign.FailpointWrite); fired != 1 {
		t.Errorf("write failpoint fired %d times, want 1", fired)
	}
	if _, err := client.Status(ctx, "j1"); err == nil {
		t.Error("a submission whose job file was not written was registered")
	}

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failpoint.Arm(campaign.FailpointWrite, failpoint.Action{Err: diskHiccup})
	requests.Store(0)
	if err := client.Cancel(ctx, id); err == nil {
		t.Fatal("cancel through a persistent write fault succeeded, want 503")
	}
	if n := requests.Load(); n != int64(fastClientOptions().Retries) {
		t.Errorf("cancel took %d requests, want %d (every attempt answered 503)", n, fastClientOptions().Retries)
	}
	if st, err := client.Status(ctx, id); err != nil || st.State != "running" {
		t.Fatalf("status after a refused cancel = %+v, %v; want running", st, err)
	}
	if l, err := client.Lease(ctx, "w"); err != nil || l == nil {
		t.Fatalf("lease after a refused cancel = %v, %v; want the job still leasing", l, err)
	}

	failpoint.Arm(campaign.FailpointWrite, failpoint.Action{Err: diskHiccup, Times: 1})
	requests.Store(0)
	if err := client.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel through a one-off write fault = %v, want cancelled on retry", err)
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("cancel took %d requests, want 2 (one 503 + success)", n)
	}
	if st, err := client.Status(ctx, id); err != nil || st.State != "cancelled" {
		t.Errorf("status after cancel = %+v, %v; want cancelled", st, err)
	}
}

// TestChaosGracefulShutdownReleasesWatchers: Close() must let an HTTP
// server drain — open SSE streams are released instead of holding the
// graceful shutdown forever — and a Watch cut off this way ends cleanly
// when its context is cancelled.
func TestChaosGracefulShutdownReleasesWatchers(t *testing.T) {
	defer failpoint.Reset()
	base := runtime.NumGoroutine()
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Delay: 200 * time.Millisecond})

	coord, err := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	w := NewWorker(srv.URL, WorkerOptions{ID: "w0", Poll: 5 * time.Millisecond})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(wctx)
	}()

	id, err := client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	watchCtx, watchCancel := context.WithCancel(ctx)
	defer watchCancel()
	var mu sync.Mutex
	events := 0
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- client.Watch(watchCtx, id, func(Event) {
			mu.Lock()
			events++
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return events > 0
	}, "watcher attached")

	// The graceful path: Close releases the SSE stream, so the server's
	// own drain (httptest's Close waits for outstanding requests)
	// finishes promptly instead of hanging on the watcher.
	start := time.Now()
	coord.Close()
	srv.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("graceful shutdown took %v; open SSE streams are holding the drain", elapsed)
	}

	// The watcher's reconnect loop spins against the dead address until
	// its context ends, then returns.
	watchCancel()
	if err := <-watchDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("watch after shutdown = %v, want nil or context.Canceled", err)
	}
	wcancel()
	wg.Wait()

	// Everything joined: no goroutines left behind (the renew loops and
	// SSE handlers are the usual leak suspects).
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+5 }, "goroutines settle after shutdown")
}

// TestChaosCancelWithInFlightLeases: cancelling a job under live
// workers stops the world cleanly — lease holders are refused on renew
// (410/ErrLeaseGone), in-flight completions are acknowledged as
// cancelled and never merged, the done count freezes, and the workers
// go back to idle polling without leaking their renew goroutines.
func TestChaosCancelWithInFlightLeases(t *testing.T) {
	defer failpoint.Reset()
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Delay: 100 * time.Millisecond})

	coord, err := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(srv.URL, WorkerOptions{ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	defer func() {
		wcancel()
		wg.Wait()
	}()

	id, err := client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, func() bool {
		st, err := client.Status(ctx, id)
		return err == nil && st.ShardsDone >= 1
	}, "workers mid-job")

	// A straggler holding its own lease across the cancel.
	straggler, err := client.Lease(ctx, "straggler")
	if err != nil || straggler == nil {
		t.Fatalf("straggler lease: %v (lease=%v)", err, straggler)
	}
	if err := client.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	if err := client.Renew(ctx, straggler.ID); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("renew after cancel = %v, want ErrLeaseGone", err)
	}
	cres, err := client.Complete(ctx, straggler.ID, CompleteRequest{Worker: "straggler", Fragment: []byte(`[30,0,0,0]`)})
	if err != nil || !cres.Cancelled {
		t.Errorf("complete after cancel = %+v, %v; want acknowledged as cancelled", cres, err)
	}

	// The done count freezes: worker shards finishing after the cancel
	// (the 100ms delay guarantees some are still in flight) are
	// answered Cancelled and never merged.
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
	frozen := st.ShardsDone
	time.Sleep(250 * time.Millisecond) // in-flight shards land in this window
	st, err = client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.ShardsDone != frozen {
		t.Errorf("ShardsDone moved %d -> %d after cancel", frozen, st.ShardsDone)
	}

	// No work left: the workers are idle-polling, not stuck.
	if l, err := client.Lease(ctx, "probe"); err != nil || l != nil {
		t.Errorf("lease on a cancelled job = %+v, %v; want none", l, err)
	}
}
