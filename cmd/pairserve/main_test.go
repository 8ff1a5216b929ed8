package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"pair/internal/fleet"
)

// TestCoordinatorAndWorkerEndToEnd boots a coordinator and two workers
// through the CLI entry point (dynamic port scraped from stdout),
// submits a small job over HTTP, and waits for the merged result.
func TestCoordinatorAndWorkerEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var coordOut syncBuffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := runCtx(ctx, []string{"-listen", "127.0.0.1:0"}, &coordOut, &coordOut); code != 0 {
			t.Errorf("coordinator exit %d\n%s", code, coordOut.String())
		}
	}()

	base := ""
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if line, ok := strings.CutPrefix(firstLine(coordOut.String()), "pairserve: listening on "); ok {
			base = strings.TrimSpace(line)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("coordinator never printed its listen URL; output %q", coordOut.String())
	}

	for i := 0; i < 2; i++ {
		var workerOut syncBuffer
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := runCtx(ctx, []string{"-worker", "-join", base, "-poll", "5ms"}, &workerOut, &workerOut); code != 0 {
				t.Errorf("worker exit %d\n%s", code, workerOut.String())
			}
		}()
	}

	client := fleet.NewClientWith(base, fleet.ClientOptions{})
	id, err := client.Submit(ctx, fleet.JobSpec{
		Namespace: "f13",
		Schemes:   []string{"none"},
		Scenarios: []string{"cell"},
		Trials:    60,
		ShardSize: 30,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, time.Minute)
	defer waitCancel()
	res, err := client.Wait(waitCtx, id, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if res.State != "done" || len(res.Campaigns) != 1 {
		t.Fatalf("result = %+v, want one done campaign", res)
	}
	if sum := res.Campaigns[0].Counts[0] + res.Campaigns[0].Counts[1] + res.Campaigns[0].Counts[2] + res.Campaigns[0].Counts[3]; sum != 60 {
		t.Fatalf("campaign counts %v sum to %d, want 60", res.Campaigns[0].Counts, sum)
	}

	cancel() // SIGINT equivalent: both processes drain and exit 0
	wg.Wait()
}

// TestCLIValidation covers the flag errors.
func TestCLIValidation(t *testing.T) {
	ctx := context.Background()
	var out syncBuffer
	if code := runCtx(ctx, []string{"-worker"}, &out, &out); code != 2 {
		t.Errorf("-worker without -join: exit %d, want 2", code)
	}
	if code := runCtx(ctx, []string{"-salvage"}, &out, &out); code != 2 {
		t.Errorf("-salvage without -resume: exit %d, want 2", code)
	}
	if code := runCtx(ctx, []string{"-listen", "256.0.0.1:bad"}, &out, &out); code != 1 {
		t.Errorf("bad listen address: exit %d, want 1", code)
	}
}

// syncBuffer is a strings.Builder safe for cross-goroutine use.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
