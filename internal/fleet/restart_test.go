package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pair/internal/campaign"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// incarnation is one coordinator lifetime in a crash-recovery test:
// the same journal and checkpoint directories are handed to each
// successive incarnation, and kill() models the previous one dying
// without ceremony.
type incarnation struct {
	coord  *Coordinator
	srv    *httptest.Server
	client *Client
}

func bootIncarnation(t *testing.T, opts CoordinatorOptions) *incarnation {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	return &incarnation{coord: coord, srv: srv, client: NewClientWith(srv.URL, fastClientOptions())}
}

// kill severs every connection and cuts the event streams — the
// in-process stand-in for SIGKILL (the OS reclaiming the dead process's
// sockets).
func (in *incarnation) kill() {
	in.srv.Close()
	in.coord.Close()
}

// shutdown is the graceful path.
func (in *incarnation) shutdown() {
	in.coord.Close()
	in.srv.Close()
}

// restartOpts are the options of a crash-safe coordinator whose state
// lives under dir.
func restartOpts(dir string) CoordinatorOptions {
	return CoordinatorOptions{
		CheckpointDir: filepath.Join(dir, "ckpt"),
		JournalDir:    filepath.Join(dir, "journal"),
		LeaseTTL:      time.Minute,
		ShardRetries:  1,
	}
}

func shardKey(l *Lease) string { return fmt.Sprintf("%s/%d", l.Label, l.Shard) }

// TestJournalReplayRebuildsState is the crash-recovery core: a restored
// job keeps its ID, spec and merged shards, every other shard (the one
// still leased at the kill included) is leased again, and a new
// submission continues the job numbering.
func TestJournalReplayRebuildsState(t *testing.T) {
	opts := restartOpts(t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inc1 := bootIncarnation(t, opts)
	id, err := inc1.client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	merged, _ := inc1.client.Lease(ctx, "w")
	held, _ := inc1.client.Lease(ctx, "w")
	if merged == nil || held == nil {
		t.Fatal("could not obtain two leases")
	}
	frag := CompleteRequest{Worker: "w", Fragment: json.RawMessage(fmt.Sprintf("[%d,0,0,0]", testShardSize))}
	if _, err := inc1.client.Complete(ctx, merged.ID, frag); err != nil {
		t.Fatalf("complete before the kill: %v", err)
	}
	inc1.kill()

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	st, err := inc2.client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if st.State != "running" || st.ShardsDone != 1 || st.ShardsFailed != 0 || st.ShardsTotal != 16 {
		t.Fatalf("restored status = %s done=%d failed=%d total=%d, want running 1/0/16",
			st.State, st.ShardsDone, st.ShardsFailed, st.ShardsTotal)
	}
	if !reflect.DeepEqual(st.Spec, testJobSpec()) {
		t.Errorf("restored spec = %+v, want %+v", st.Spec, testJobSpec())
	}

	leased := map[string]bool{}
	for {
		l, err := inc2.client.Lease(ctx, "w")
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if l == nil {
			break
		}
		leased[shardKey(l)] = true
	}
	if len(leased) != 15 || leased[shardKey(merged)] || !leased[shardKey(held)] {
		t.Errorf("leased %d shards after restart (merged one: %v, held one: %v); want the 15 without a fragment",
			len(leased), leased[shardKey(merged)], leased[shardKey(held)])
	}

	other := singleShardSpec()
	other.Namespace = "other"
	id2, err := inc2.client.Submit(ctx, other)
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if id != "j1" || id2 != "j2" {
		t.Errorf("job ids = %s, %s; want j1, j2 (numbering continues across a restart)", id, id2)
	}
}

// TestJournalCompleteWithoutFragmentReissued: a shard whose fragment
// never reached a checkpoint (here: no CheckpointDir at all, so a kill
// loses every fragment) is leased again after a restart under a new
// lease ID, and the job is not restored as done.
func TestJournalCompleteWithoutFragmentReissued(t *testing.T) {
	opts := CoordinatorOptions{
		JournalDir: filepath.Join(t.TempDir(), "journal"),
		LeaseTTL:   time.Minute,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inc1 := bootIncarnation(t, opts)
	id, err := inc1.client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l, _ := inc1.client.Lease(ctx, "w")
	if l == nil {
		t.Fatal("no lease")
	}
	if _, err := inc1.client.Complete(ctx, l.ID, CompleteRequest{Worker: "w", Fragment: []byte(`[30,0,0,0]`)}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if st, _ := inc1.client.Status(ctx, id); st.State != "done" {
		t.Fatalf("pre-crash state = %q, want done", st.State)
	}
	inc1.kill()

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	st, err := inc2.client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if st.State != "running" || st.ShardsDone != 0 {
		t.Fatalf("restored status = %s done=%d, want running 0 (the fragment was lost with the process)", st.State, st.ShardsDone)
	}
	l2, err := inc2.client.Lease(ctx, "w2")
	if err != nil || l2 == nil || l2.Shard != l.Shard {
		t.Fatalf("lease after restart = %+v, %v; want the lost shard", l2, err)
	}
	if l2.ID == l.ID {
		t.Errorf("re-issued lease kept the pre-crash ID %s; generations must advance", l.ID)
	}
	if _, err := inc2.client.Complete(ctx, l2.ID, CompleteRequest{Worker: "w2", Fragment: []byte(`[30,0,0,0]`)}); err != nil {
		t.Fatalf("complete after restart: %v", err)
	}
	if st, _ := inc2.client.Status(ctx, id); st.State != "done" {
		t.Errorf("final state = %q, want done", st.State)
	}
}

// TestJournalExpiryAcrossRestart: a restart expires every lease granted
// before it. The stale holder's renew is refused, the shard is leased
// again under a new ID, a stale failure report is ignored, and the
// stale holder's fragment still merges while the shard has none (first
// fragment wins).
func TestJournalExpiryAcrossRestart(t *testing.T) {
	opts := restartOpts(t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inc1 := bootIncarnation(t, opts)
	spec := singleShardSpec()
	spec.Trials = 2 * testShardSize
	id, err := inc1.client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l0, _ := inc1.client.Lease(ctx, "doomed")
	l1, _ := inc1.client.Lease(ctx, "doomed")
	if l0 == nil || l1 == nil {
		t.Fatal("could not obtain two leases")
	}
	inc1.kill()

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	if err := inc2.client.Renew(ctx, l0.ID); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("renewing a pre-restart lease = %v, want ErrLeaseGone", err)
	}
	n0, _ := inc2.client.Lease(ctx, "heir")
	n1, _ := inc2.client.Lease(ctx, "heir")
	if n0 == nil || n1 == nil || n0.Shard != l0.Shard || n1.Shard != l1.Shard {
		t.Fatalf("leases after restart = %+v, %+v; want shards %d and %d again", n0, n1, l0.Shard, l1.Shard)
	}
	if n0.ID == l0.ID || n1.ID == l1.ID {
		t.Fatalf("re-issues kept lease IDs %s, %s; generations must start above the previous incarnation's", n0.ID, n1.ID)
	}

	// Shard 1 is leased again and ShardRetries is 1: a stale failure
	// report that counted would fail it.
	if _, err := inc2.client.Complete(ctx, l1.ID, CompleteRequest{Worker: "doomed", Error: "lost"}); err != nil {
		t.Fatalf("stale failure report: %v", err)
	}
	frag := CompleteRequest{Worker: "doomed", Fragment: []byte(`[30,0,0,0]`)}
	if res, err := inc2.client.Complete(ctx, l0.ID, frag); err != nil || res.Duplicate {
		t.Fatalf("stale fragment = %+v, %v; want merged", res, err)
	}
	frag.Worker = "heir"
	if res, err := inc2.client.Complete(ctx, n0.ID, frag); err != nil || !res.Duplicate {
		t.Fatalf("live lease's fragment after the stale one = %+v, %v; want duplicate", res, err)
	}
	st, err := inc2.client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.ShardsDone != 1 || st.ShardsFailed != 0 || st.State != "running" {
		t.Errorf("status = %s done=%d failed=%d, want running 1/0", st.State, st.ShardsDone, st.ShardsFailed)
	}
}

// TestJournalCancelSurvivesRestart: cancellation is recorded before it
// is acknowledged and stands after a restart (it is an operator action,
// not derivable from checkpoints).
func TestJournalCancelSurvivesRestart(t *testing.T) {
	opts := CoordinatorOptions{
		JournalDir: filepath.Join(t.TempDir(), "journal"),
		LeaseTTL:   time.Minute,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inc1 := bootIncarnation(t, opts)
	id, err := inc1.client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := inc1.client.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	inc1.kill()

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	st, err := inc2.client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if st.State != "cancelled" {
		t.Fatalf("restored state = %q, want cancelled", st.State)
	}
	if l, err := inc2.client.Lease(ctx, "w"); err != nil || l != nil {
		t.Errorf("lease on a cancelled job = %+v, %v; want none", l, err)
	}
}

// TestJournalEventIDsIncreaseAcrossRestart: SSE ids are scoped under
// the epoch, so every id after a restart is above every id before it
// and a reconnecting watcher never mistakes new events for replays.
func TestJournalEventIDsIncreaseAcrossRestart(t *testing.T) {
	opts := restartOpts(t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// latestID reads the id of the opening snapshot, which carries the
	// job's latest event id.
	latestID := func(client *Client, id string) uint64 {
		t.Helper()
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		var got uint64
		if err := client.Watch(wctx, id, func(ev Event) { got = ev.ID; wcancel() }); !errors.Is(err, context.Canceled) {
			t.Fatalf("watch: %v", err)
		}
		return got
	}

	inc1 := bootIncarnation(t, opts)
	spec := singleShardSpec()
	spec.Trials = 2 * testShardSize
	id, err := inc1.client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l, _ := inc1.client.Lease(ctx, "w")
	if l == nil {
		t.Fatal("no lease")
	}
	if _, err := inc1.client.Complete(ctx, l.ID, CompleteRequest{Worker: "w", Fragment: []byte(`[30,0,0,0]`)}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	before := latestID(inc1.client, id)
	inc1.kill()

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	if after := latestID(inc2.client, id); after <= before {
		t.Errorf("event id after restart %#x is not above the last one before it %#x", after, before)
	}
}

// TestJournalLazyEpoch: a coordinator that never recorded a job leaves
// its JournalDir empty, and the epoch file appears with the first job
// file, so no epoch file means no jobs.
func TestJournalLazyEpoch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	files := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading the journal directory: %v", err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	for i := 0; i < 2; i++ {
		coord, err := NewCoordinator(CoordinatorOptions{JournalDir: dir})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		coord.Close()
		if got := files(); len(got) != 0 {
			t.Fatalf("start %d wrote %v into an empty journal directory", i+1, got)
		}
	}

	inc := bootIncarnation(t, CoordinatorOptions{JournalDir: dir})
	defer inc.shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := inc.client.Submit(ctx, singleShardSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := files(); !reflect.DeepEqual(got, []string{epochFile, "j1.json"}) {
		t.Errorf("journal directory after the first submit = %v, want [%s j1.json]", got, epochFile)
	}
}

// TestJournalRestoresUnbuildableJobAsFailed: a job that no longer
// builds does not keep the coordinator down. Here a local run of
// another trial count takes over a second job's checkpoint file between
// incarnations, so that job's forced resume rejects the file: the job
// comes back failed with the error as its message, and every other job
// comes back as it was.
func TestJournalRestoresUnbuildableJobAsFailed(t *testing.T) {
	opts := restartOpts(t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inc1 := bootIncarnation(t, opts)
	full, err := inc1.client.Submit(ctx, testJobSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l, _ := inc1.client.Lease(ctx, "w")
	if l == nil {
		t.Fatal("no lease")
	}
	frag := json.RawMessage(fmt.Sprintf("[%d,0,0,0]", testShardSize))
	if _, err := inc1.client.Complete(ctx, l.ID, CompleteRequest{Worker: "w", Fragment: frag}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	small := singleShardSpec()
	small.Namespace = "quick"
	quick, err := inc1.client.Submit(ctx, small)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	inc1.kill()

	scheme, err := schemes.New(small.Schemes[0])
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := faults.NewScenario(small.Scenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	other := reliability.ScenarioCampaignSpec(scheme, scenario, 2*small.Trials, small.Seed)
	other.ShardSize = small.ShardSize
	if _, err := campaign.Run(ctx, other, campaign.Options{Namespace: small.Namespace, CheckpointDir: opts.CheckpointDir},
		reliability.ScenarioShardFn(scheme, scenario), reliability.MergeCounts); err != nil {
		t.Fatalf("local run over the job's checkpoint: %v", err)
	}

	inc2 := bootIncarnation(t, opts)
	defer inc2.shutdown()
	st, err := inc2.client.Status(ctx, full)
	if err != nil || st.State != "running" || st.ShardsDone != 1 {
		t.Fatalf("restored %s = %+v, %v; want running with 1 shard done", full, st, err)
	}
	st, err = inc2.client.Status(ctx, quick)
	if err != nil || st.State != "failed" || !strings.Contains(st.Error, "different campaign") {
		t.Fatalf("restored %s = %+v, %v; want failed by the checkpoint mismatch", quick, st, err)
	}
}

// TestJournalRejectsDamage: atomic writes cannot leave a job file that
// does not decode or an epoch file that does not parse, so either one
// is real damage and NewCoordinator refuses to start, naming the file.
func TestJournalRejectsDamage(t *testing.T) {
	cases := []struct {
		name, file, content string
	}{
		{"torn job file", "j1.json", `{"spec":{"schemes":["none"],`},
		{"job without spec", "j1.json", `{"cancelled":true}`},
		{"invalid terminal state", "j1.json", `{"spec":{"schemes":["none"],"scenarios":["cell"],"trials":30},"cancelled":"perhaps"}`},
		{"job file not an object", "j1.json", `[1,2,3]`},
		{"epoch not a number", epochFile, "one\n"},
		{"negative epoch", epochFile, "-3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewCoordinator(CoordinatorOptions{JournalDir: dir})
			if err == nil {
				c.Close()
				t.Fatalf("NewCoordinator accepted a journal directory with a %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.file) {
				t.Errorf("error %q does not name %s", err, tc.file)
			}
		})
	}
}

// FuzzJournalReplay holds the restore contract over arbitrary job file
// bytes: NewCoordinator either restores the job or returns an error —
// never a panic — and restoring the same directory twice gives
// identical statuses.
func FuzzJournalReplay(f *testing.F) {
	spec := singleShardSpec()
	valid := mustJSON(jobRecord{Spec: &spec})
	f.Add([]byte(valid))
	f.Add([]byte(mustJSON(jobRecord{Spec: &spec, Cancelled: true})))
	f.Add([]byte(`{"spec":{"schemes":["none"],"scenarios":["cell"],"trials":0}}`))
	f.Add([]byte(`{"spec":{"schemes":["no-such-scheme"],"scenarios":["cell"],"trials":30}}`))
	f.Add([]byte(`{"cancelled":true}`))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Bound the work a hostile spec can demand: campaign expansion is
		// O(shards x schemes x scenarios), and the fuzzer should explore
		// the restore path, not allocation limits.
		var rec jobRecord
		if json.Unmarshal(raw, &rec) == nil && rec.Spec != nil &&
			(rec.Spec.Trials > 10_000 || len(rec.Spec.Schemes)*len(rec.Spec.Scenarios) > 16) {
			t.Skip("spec too large for fuzzing")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "j1.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		snapshot := func() ([]JobStatus, error) {
			c, err := NewCoordinator(CoordinatorOptions{JournalDir: dir})
			if err != nil {
				return nil, err
			}
			defer c.Close()
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]JobStatus, 0, len(c.order))
			for _, j := range c.order {
				st := c.statusLocked(j)
				st.Progress = "" // wall-clock dependent; not part of the contract
				out = append(out, st)
			}
			return out, nil
		}
		st1, err1 := snapshot()
		st2, err2 := snapshot()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("restore determinism broken: first err=%v, second err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if b1, b2 := mustJSON(st1), mustJSON(st2); string(b1) != string(b2) {
			t.Fatalf("restoring the same directory twice diverged:\n%s\nvs\n%s", b1, b2)
		}
	})
}
