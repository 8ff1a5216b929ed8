package reliability

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pair/internal/campaign"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/failpoint"
)

// noInject is a coverage injector that flips nothing.
func noInject(*rand.Rand, *ecc.Stored) {}

// TestCoveragePanicIsolatedAndRetried verifies the hardening knobs
// thread through the reliability layer: a panicking shard inside a
// coverage campaign surfaces as a typed ShardError (not a process
// crash), and with a retry budget the same campaign completes with
// results identical to an undisturbed run.
func TestCoveragePanicIsolatedAndRetried(t *testing.T) {
	defer failpoint.Reset()
	s := ecc.NewIECC(dram.DDR4x16())
	clean, err := CoverageCtx(context.Background(), s, "pin", 2000, 1, noInject, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Without a retry budget the panic becomes a structured error whose
	// context names the coverage campaign.
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Panic: "shard crash", Times: 1})
	_, err = CoverageCtx(context.Background(), s, "pin", 2000, 1, noInject, nil, campaign.Options{})
	var se *campaign.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("panicking coverage shard returned %v, want ShardError", err)
	}
	if !strings.Contains(se.Label, "coverage") || !strings.Contains(se.Label, "pin") {
		t.Fatalf("shard error label %q lacks campaign context", se.Label)
	}

	// With retries the transient panic is absorbed and the result is
	// bit-identical (every attempt reseeds from the shard seed).
	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Panic: "shard crash", Times: 1})
	rep := new(campaign.Report)
	got, err := CoverageCtx(context.Background(), s, "pin", 2000, 1, noInject,
		nil, campaign.Options{Retries: 2, Report: rep})
	if err != nil {
		t.Fatalf("retried coverage failed: %v", err)
	}
	if got != clean {
		t.Fatalf("retried coverage %+v != clean %+v", got, clean)
	}
	if sr, _ := rep.Retries(); sr != 1 {
		t.Fatalf("report counts %d retries, want 1", sr)
	}
}

// TestBuildProfileSurvivesDegradedCheckpointing: a profile campaign
// whose checkpoint writes all fail still completes (memory-only mode)
// with the same profile an unhampered run produces.
func TestBuildProfileSurvivesDegradedCheckpointing(t *testing.T) {
	defer failpoint.Reset()
	s := ecc.NewIECC(dram.DDR4x16())
	cfg := SweepConfig{MaxK: 3, Trials: 1500, Seed: 7}
	clean, err := BuildProfileCtx(context.Background(), s, cfg, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	failpoint.Arm(campaign.FailpointWrite, failpoint.Action{Err: errors.New("disk gone")})
	rep := new(campaign.Report)
	got, err := BuildProfileCtx(context.Background(), s, cfg, campaign.Options{
		CheckpointDir:     t.TempDir(),
		Report:            rep,
		CheckpointBackoff: campaign.Backoff{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatalf("degraded profile run failed: %v", err)
	}
	if degraded, _ := rep.Degraded(); !degraded {
		t.Fatal("exhausted checkpoint budget did not degrade")
	}
	for k := range clean.PerK {
		if got.PerK[k] != clean.PerK[k] {
			t.Fatalf("degraded profile k=%d %+v != clean %+v", k, got.PerK[k], clean.PerK[k])
		}
	}
}
