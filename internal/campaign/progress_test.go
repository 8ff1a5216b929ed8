package campaign

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncWriter collects reporter output under a lock (the reporter
// goroutine and the test read/write concurrently).
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestProgressReporterTicks(t *testing.T) {
	p := NewProgress()
	p.AddCampaign(4, 400)
	p.ShardDone(100)
	w := &syncWriter{}
	stop := p.Report(context.Background(), w, 2*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(w.String(), "shards 1/4") {
		if time.Now().After(deadline) {
			t.Fatalf("reporter never ticked; output %q", w.String())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if n := strings.Count(w.String(), "progress:"); n < 2 {
		t.Fatalf("want >= 2 progress lines (ticks + final), got %d: %q", n, w.String())
	}
}

// A ticking reporter goes quiet on context cancellation alone, without
// stop. The output must hold still for a whole quiet window within the
// deadline; a reporter that ignores ctx writes every millisecond and
// never does.
func TestProgressReporterStopsOnContextCancel(t *testing.T) {
	p := NewProgress()
	w := &syncWriter{}
	ctx, cancel := context.WithCancel(context.Background())
	stop := p.Report(ctx, w, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(w.String(), "progress:") {
		if time.Now().After(deadline) {
			t.Fatalf("reporter never ticked; output %q", w.String())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	const quiet = 20 * time.Millisecond
	for before := w.String(); ; {
		time.Sleep(quiet)
		after := w.String()
		if after == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reporter kept ticking after cancel: %d -> %d lines",
				strings.Count(before, "\n"), strings.Count(after, "\n"))
		}
		before = after
	}
	stop() // still safe after cancel, and idempotent
	stop()
	if !strings.Contains(w.String(), "progress:") {
		t.Fatalf("no final line after stop: %q", w.String())
	}
}

func TestSnapshotRateAndETA(t *testing.T) {
	p := NewProgress()
	p.start = time.Now().Add(-2 * time.Second) // fake 2s of elapsed work
	p.AddCampaign(10, 1000)
	p.ShardDone(100)
	p.ShardDone(100)
	s := p.Snapshot()
	if s.TrialsPerSec <= 0 {
		t.Fatalf("TrialsPerSec = %v, want > 0", s.TrialsPerSec)
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA = %v, want > 0 with %d trials remaining", s.ETA, s.TrialsTotal-s.TrialsDone)
	}
	line := s.String()
	if !strings.Contains(line, "trials/s") || !strings.Contains(line, "ETA") {
		t.Fatalf("snapshot line %q lacks rate/ETA", line)
	}
}

func TestNilProgressIsSafe(t *testing.T) {
	var p *Progress
	p.AddCampaign(1, 1)
	p.ShardDone(1)
	p.ShardResumed(1)
	p.ShardRetried()
	p.ShardFailed(1)
}

// A shard whose retry budget was exhausted will never contribute its
// trials, so the remaining-work estimate must drop them: the ETA has to
// reach zero and the shards line has to converge on d == t. (Regression:
// failed trials used to stay in "remaining" forever, so the ETA and the
// "shards d/t" counter never converged on runs that lost shards.)
func TestSnapshotConvergesWithFailedShards(t *testing.T) {
	p := NewProgress()
	p.start = time.Now().Add(-2 * time.Second)
	p.AddCampaign(4, 400)
	p.ShardDone(100)
	p.ShardDone(100)
	p.ShardDone(100)
	p.ShardFailed(100) // retry budget exhausted: these trials are gone
	s := p.Snapshot()
	if s.TrialsFailed != 100 {
		t.Fatalf("TrialsFailed = %d, want 100", s.TrialsFailed)
	}
	if s.ETA != 0 {
		t.Fatalf("ETA = %v, want 0: no remaining work once failed trials are discounted", s.ETA)
	}
	line := s.String()
	if !strings.Contains(line, "shards 4/4") {
		t.Fatalf("shards counter did not converge with a failed shard: %q", line)
	}
	if !strings.Contains(line, "(1 FAILED)") {
		t.Fatalf("failed-shard annotation missing: %q", line)
	}
}

// Failed trials clamp the remaining-work estimate at zero rather than
// producing a negative ETA when counters transiently over-count.
func TestSnapshotClampsNegativeRemaining(t *testing.T) {
	p := NewProgress()
	p.start = time.Now().Add(-time.Second)
	p.AddCampaign(2, 200)
	p.ShardDone(150)
	p.ShardFailed(100) // done+failed > total
	if eta := p.Snapshot().ETA; eta != 0 {
		t.Fatalf("ETA = %v, want 0 when accounted trials exceed the total", eta)
	}
}

// Context cancellation stops the reporter and still emits the final
// snapshot line, exactly once: a later stop returns without writing.
// (Regression: the reporter goroutine used to exit on ctx-done without
// writing anything, so an interrupted run ended with no final status.)
func TestProgressReporterFinalLineOnContextCancel(t *testing.T) {
	p := NewProgress()
	p.AddCampaign(2, 200)
	p.ShardDone(100)
	w := &syncWriter{}
	ctx, cancel := context.WithCancel(context.Background())
	stop := p.Report(ctx, w, time.Hour) // interval long enough that no tick fires
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(w.String(), "progress:") {
		if time.Now().After(deadline) {
			t.Fatalf("no final snapshot line after ctx cancel; output %q", w.String())
		}
		time.Sleep(time.Millisecond)
	}
	stop() // idempotent: must not write a second final line
	if n := strings.Count(w.String(), "progress:"); n != 1 {
		t.Fatalf("want exactly 1 final line after cancel+stop, got %d: %q", n, w.String())
	}
}

// overlapWriter fails the test if two Write calls ever overlap — the
// interleaved-output defect stop() used to cause by writing the final
// snapshot from the caller's goroutine while a ticker write was in
// flight.
type overlapWriter struct {
	t       *testing.T
	writing atomic.Bool
	lines   atomic.Int64
}

func (w *overlapWriter) Write(b []byte) (int, error) {
	if !w.writing.CompareAndSwap(false, true) {
		w.t.Error("concurrent Write calls: reporter output can interleave")
		return len(b), nil
	}
	time.Sleep(100 * time.Microsecond) // widen the race window
	w.lines.Add(1)
	w.writing.Store(false)
	return len(b), nil
}

func TestProgressReporterSerializesWrites(t *testing.T) {
	for i := 0; i < 20; i++ {
		p := NewProgress()
		w := &overlapWriter{t: t}
		stop := p.Report(context.Background(), w, 200*time.Microsecond)
		time.Sleep(time.Millisecond) // let a few ticks land
		stop()
		if w.lines.Load() < 1 {
			t.Fatal("stop returned before the final line was written")
		}
	}
}
