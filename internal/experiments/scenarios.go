package experiments

import (
	"context"
	"fmt"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/reliability"
)

// F13ScenariosCtx sweeps the registered fault scenarios across the
// scheme set as cancellable, checkpointable campaigns — one per
// (scenario, scheme) cell, labelled by the scenario's canonical spec.
// This is the strength/weakness matrix: each scheme's niche shows up as
// a column of 100/0/0 cells on the scenario family its geometry covers.
func F13ScenariosCtx(ctx context.Context, schemes []ecc.Scheme, scenarios []faults.Scenario, trials int, opts campaign.Options) (*Table, error) {
	return F13ScenariosCells(schemes, scenarios, trials, func(s ecc.Scheme, sc faults.Scenario) (reliability.OutcomeRates, error) {
		r, err := reliability.ScenarioCoverageCtx(ctx, s, sc, trials, CampaignSeed, opts)
		if err != nil {
			return reliability.OutcomeRates{}, err
		}
		return r.Rates, nil
	})
}

// F13ScenariosCells renders the differential table from a cell supplier,
// decoupling the table from where the campaigns ran: F13ScenariosCtx
// plugs in local campaign runs, pairsim's -fleet mode plugs in a lookup
// over a fleet job's merged shard counts. Cells are visited row-major
// (scenario outer, scheme inner) in presentation order, so a supplier
// that runs campaigns lazily reproduces the local execution order.
func F13ScenariosCells(schemes []ecc.Scheme, scenarios []faults.Scenario, trials int, cell func(s ecc.Scheme, sc faults.Scenario) (reliability.OutcomeRates, error)) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("F13: outcome by fault scenario (%d trials each; CE/DUE/SDC shares)", trials),
		Header: []string{"scenario"},
	}
	for _, s := range schemes {
		t.Header = append(t.Header, s.Name())
	}
	for _, sc := range scenarios {
		row := []string{sc.Spec()}
		for _, s := range schemes {
			rates, err := cell(s, sc)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f", rates.CE*100, rates.DUE*100, rates.SDC*100))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"cells are CE/DUE/SDC percentages; 100/0/0 = always corrected",
		"pin/pinburst are PAIR's aligned axis; beatburst is DUO's; chipkill:chips=1 is XED's rank-XOR niche")
	return t, nil
}
