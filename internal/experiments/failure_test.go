package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"pair/internal/campaign"
	"pair/internal/failpoint"
)

// TestT2CoverageHardeningOptionsPropagate proves the failure-hardening
// knobs flow from the experiment layer down to the campaign runner: a
// T2 coverage sweep whose checkpoint writes always fail still completes
// (memory-only mode), its table matches an unhampered run, and the
// report records the degradation; a panicking shard with a retry budget
// is likewise absorbed without changing a single cell.
func TestT2CoverageHardeningOptionsPropagate(t *testing.T) {
	defer failpoint.Reset()
	schemes := CommoditySchemes()[:2]
	clean, err := T2CoverageEnvCtx(context.Background(), schemes, 300, nil, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	failpoint.Arm(campaign.FailpointWrite, failpoint.Action{Err: errors.New("disk gone")})
	rep := new(campaign.Report)
	got, err := T2CoverageEnvCtx(context.Background(), schemes, 300, nil, campaign.Options{
		CheckpointDir:     t.TempDir(),
		Report:            rep,
		CheckpointBackoff: campaign.Backoff{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatalf("degraded t2 run failed: %v", err)
	}
	if degraded, _ := rep.Degraded(); !degraded {
		t.Fatal("exhausted checkpoint budget did not degrade")
	}
	if got.Render() != clean.Render() {
		t.Fatalf("degraded table differs:\n--- clean\n%s\n--- degraded\n%s", clean.Render(), got.Render())
	}
	failpoint.Reset()

	failpoint.Arm(campaign.FailpointShard, failpoint.Action{Panic: "t2 crash", Times: 1})
	rep = new(campaign.Report)
	got, err = T2CoverageEnvCtx(context.Background(), schemes, 300, nil,
		campaign.Options{Retries: 2, Report: rep})
	if err != nil {
		t.Fatalf("retried t2 run failed: %v", err)
	}
	if sr, _ := rep.Retries(); sr != 1 {
		t.Fatalf("report counts %d shard retries, want 1", sr)
	}
	if got.Render() != clean.Render() {
		t.Fatalf("retried table differs:\n--- clean\n%s\n--- retried\n%s", clean.Render(), got.Render())
	}
}
