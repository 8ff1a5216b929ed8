package pair

import (
	"context"
	"fmt"

	"pair/internal/campaign"
	"pair/internal/experiments"
)

// ExperimentIDs lists the identifiers RunExperiment accepts, in
// presentation order (see DESIGN.md's per-experiment index).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the study's tables or figures and
// returns the text `pairsim -exp <id>` prints for it, without the timing
// line. quick selects pairsim's -quick CI scale; publication scale is its
// default.
func RunExperiment(id string, quick bool) (string, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		return "", fmt.Errorf("pair: %w", err)
	}
	return e.Run(context.Background(), experiments.ScaleFor(quick, 0, 0, 0), campaign.Options{})
}
