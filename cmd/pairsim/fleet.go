package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"pair/internal/ecc"
	"pair/internal/experiments"
	"pair/internal/faults"
	"pair/internal/fleet"
	"pair/internal/registry"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// runFleetExperiments submits the selected experiments to a pairserve
// coordinator instead of running them locally, then renders the same
// tables from the merged shard counts. Only f13 is fleet-capable: its
// campaigns are fully declarative (scheme spec x scenario spec), which
// is exactly what travels on the wire; the other experiments close over
// local state and run in-process only.
func runFleetExperiments(ctx context.Context, base string, exps []experiments.Experiment, schemeList, faultList string, sc experiments.Scale, progress bool, stdout, stderr io.Writer) int {
	for _, e := range exps {
		if e.ID != "f13" {
			fmt.Fprintf(stderr, "pairsim: -fleet supports only the f13 experiment (its campaigns are declarative scheme x scenario specs); got %q\n", e.ID)
			return 2
		}
	}

	// The spec strings are the wire format: default to the same sets the
	// local f13 uses (the "commodity" scheme set, every registered
	// scenario), so fleet and local runs produce the same table.
	schemeSpecs, scenarioSpecs, err := fleetSpecs(schemeList, faultList)
	if err != nil {
		fmt.Fprintln(stderr, "pairsim:", err)
		return 2
	}

	// The default client options carry the transient-fault layer: dial
	// and per-request timeouts plus retry-with-backoff, so a coordinator
	// restart mid-submit surfaces as warnings here, not a dead run.
	client := fleet.NewClientWith(base, fleet.ClientOptions{
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "pairsim: "+format+"\n", args...)
		},
	})
	jobID, err := client.Submit(ctx, fleet.JobSpec{
		Namespace: "f13",
		Schemes:   schemeSpecs,
		Scenarios: scenarioSpecs,
		Trials:    sc.Coverage,
		Seed:      experiments.CampaignSeed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pairsim:", err)
		return 1
	}
	fmt.Fprintf(stderr, "pairsim: submitted job %s to %s (%d campaigns)\n",
		jobID, base, len(schemeSpecs)*len(scenarioSpecs))

	var pw io.Writer
	if progress {
		pw = stderr
	}
	start := time.Now()
	res, err := client.Wait(ctx, jobID, pw)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "pairsim: interrupted; job %s keeps running on the coordinator — cancel it with POST %s/api/jobs/%s/cancel\n", jobID, base, jobID)
			return 130
		}
		fmt.Fprintln(stderr, "pairsim:", err)
		return 1
	}
	if res.ReportSummary != "" {
		fmt.Fprintln(stderr, "pairsim: fleet defect report:")
		for _, line := range strings.Split(res.ReportSummary, "\n") {
			fmt.Fprintln(stderr, "  "+line)
		}
	}
	if res.State != "done" {
		fmt.Fprintf(stderr, "pairsim: job %s finished in state %q: %s\n", jobID, res.State, res.Error)
		return 1
	}

	out, err := renderFleetF13(res, schemeSpecs, scenarioSpecs, sc.Coverage)
	if err != nil {
		fmt.Fprintln(stderr, "pairsim:", err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	fmt.Fprintf(stdout, "[F13 done in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// fleetSpecs resolves the -schemes and -faults flags to spec strings,
// falling back to f13's default rosters.
func fleetSpecs(schemeList, faultList string) (schemeSpecs, scenarioSpecs []string, err error) {
	if schemeList != "" {
		if schemeSpecs, err = registry.SplitList(schemeList); err != nil {
			return nil, nil, err
		}
	} else {
		set, err := schemes.SetByID("commodity")
		if err != nil {
			return nil, nil, err
		}
		schemeSpecs = set.Specs
	}
	if faultList != "" {
		if scenarioSpecs, err = registry.SplitList(faultList); err != nil {
			return nil, nil, err
		}
	} else {
		scenarioSpecs = faults.ScenarioIDs()
	}
	return schemeSpecs, scenarioSpecs, nil
}

// renderFleetF13 renders the f13 differential table from a fleet job's
// merged counts: the same F13ScenariosCells renderer the local path
// uses, with the cell supplier looking campaigns up by (scheme spec,
// scenario spec) instead of running them.
func renderFleetF13(res *fleet.JobResult, schemeSpecs, scenarioSpecs []string, trials int) (string, error) {
	schemeObjs, err := schemes.Build(schemeSpecs)
	if err != nil {
		return "", err
	}
	scenarioObjs, err := faults.BuildScenarios(scenarioSpecs)
	if err != nil {
		return "", err
	}
	specOfScheme := map[ecc.Scheme]string{}
	for i, s := range schemeObjs {
		specOfScheme[s] = schemeSpecs[i]
	}
	specOfScenario := map[faults.Scenario]string{}
	for i, sc := range scenarioObjs {
		specOfScenario[sc] = scenarioSpecs[i]
	}
	byCell := map[string]fleet.CampaignResult{}
	for _, cr := range res.Campaigns {
		byCell[cr.Scheme+"\x00"+cr.Scenario] = cr
	}
	t, err := experiments.F13ScenariosCells(schemeObjs, scenarioObjs, trials,
		func(s ecc.Scheme, sc faults.Scenario) (reliability.OutcomeRates, error) {
			cr, ok := byCell[specOfScheme[s]+"\x00"+specOfScenario[sc]]
			if !ok {
				return reliability.OutcomeRates{}, fmt.Errorf("fleet result is missing the (%s, %s) campaign", specOfScheme[s], specOfScenario[sc])
			}
			return reliability.RatesFromCounts(cr.Counts, cr.Trials), nil
		})
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}
