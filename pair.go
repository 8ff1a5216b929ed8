// Package pair is the public facade of the PAIR reproduction — the
// pin-aligned in-DRAM ECC architecture using the expandability of
// Reed-Solomon codes (Jeong, Kang, Yang; DAC 2020) — together with the
// baseline schemes it is evaluated against (conventional in-DRAM ECC,
// rank-level SECDED, XED, DUO), a DRAM fault model, a Monte-Carlo
// reliability engine and a DDR4 timing simulator.
//
// Quick start:
//
//	scheme := pair.NewPAIR()
//	stored := pair.Encode(scheme, line)        // protect a 64B cache line
//	data, claim := pair.Decode(scheme, stored) // recover it
//
// The baselines are built by spec, e.g. pair.SchemeBySpec("xed").
//
// Every scheme implements one codec contract (see Scheme): batches of
// caller-owned images encoded and decoded one image at a time, width 1
// being the scalar case. Encode and Decode are its allocating
// single-line form.
//
// The experiment surface lives behind RunExperiment / ExperimentIDs, which
// run the same experiment index as the pairsim binary.
package pair

import (
	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
)

// Scheme is the common interface of every evaluated ECC architecture. See
// internal/ecc for the contract.
type Scheme = ecc.Scheme

// Claim and Outcome re-export the decode-claim and ground-truth outcome
// classifications; Stored is the physical storage image of one protected
// line (the unit fault injection operates on).
type (
	Claim   = ecc.Claim
	Outcome = ecc.Outcome
	Stored  = ecc.Stored
)

// Re-exported classification constants.
const (
	ClaimClean     = ecc.ClaimClean
	ClaimCorrected = ecc.ClaimCorrected
	ClaimDetected  = ecc.ClaimDetected

	OutcomeOK  = ecc.OutcomeOK
	OutcomeCE  = ecc.OutcomeCE
	OutcomeDUE = ecc.OutcomeDUE
	OutcomeSDC = ecc.OutcomeSDC
)

// Encode returns a freshly allocated storage image of line under scheme.
func Encode(scheme Scheme, line []byte) *Stored { return ecc.Encode(scheme, line) }

// Decode recovers the line from a (possibly corrupted) storage image and
// reports the decoder's claim.
func Decode(scheme Scheme, st *Stored) ([]byte, Claim) { return ecc.Decode(scheme, st) }

// Classify compares a decode result against the golden line.
func Classify(golden, decoded []byte, claim Claim) Outcome {
	return ecc.Classify(golden, decoded, claim)
}

// Organization re-exports the DRAM organization descriptor.
type Organization = dram.Organization

// DDR4x16 returns the study's commodity organization (4 x16 chips, BL8).
func DDR4x16() Organization { return dram.DDR4x16() }

// DDR5x16 returns a DDR5 32-bit subchannel (2 x16 chips, BL16) — each
// pin carries two PAIR symbols per burst.
func DDR5x16() Organization { return dram.DDR5x16() }

// PAIRConfig re-exports the PAIR operating-point configuration.
type PAIRConfig = core.Config

// NewPAIR returns the headline PAIR scheme: pin-aligned RS(20,16), t=2
// (2 base parity symbols + 2 expansion symbols), on the commodity x16
// organization.
func NewPAIR() *core.Scheme { return core.MustNew(dram.DDR4x16(), core.DefaultConfig()) }

// NewPAIRBase returns the unexpanded PAIR base: RS(18,16), t=1.
func NewPAIRBase() *core.Scheme { return core.MustNew(dram.DDR4x16(), core.BaseConfig()) }

// NewPAIRWith returns PAIR at an arbitrary operating point.
func NewPAIRWith(org Organization, cfg PAIRConfig) (*core.Scheme, error) { return core.New(org, cfg) }

// AllSchemes returns the evaluation set of the study, in presentation
// order: none, iecc, xed, duo, pair-base, pair. The composition lives in
// the scheme registry's "eval" set (internal/schemes).
func AllSchemes() []Scheme {
	return schemes.MustBuildSet("eval")
}

// SchemeBySpec builds a scheme from a full registry spec string,
//
//	name[@org][:key=val,...]
//
// e.g. "pair" (a registered name on its default organization),
// "pair@ddr5x16" (the headline code on a DDR5 subchannel) or
// "pair:spare=3.7" (spared-PAIR with pins 3 and 7 of chip 0 erased). The
// accepted names, and the name list in the error, come from the
// registry, so a newly registered scheme is constructible here at once.
func SchemeBySpec(spec string) (Scheme, error) {
	return schemes.New(spec)
}

// SchemeSpecHelp returns the full scheme/organization/set listing the
// cmd binaries print for -list-schemes.
func SchemeSpecHelp() string {
	return schemes.ListText()
}

// FaultScenario is a registered field-fault scenario — a seeded,
// composable per-trial corruption model from the fault-scenario registry
// (internal/faults).
type FaultScenario = faults.Scenario

// ScenarioBySpec builds a fault scenario from a registry spec string,
//
//	name[:key=val,...] or compose(spec,spec,...)
//
// e.g. "pinburst:b=4" (a four-beat burst on one DQ pin) or
// "compose(pin,inherent:ber=1e-5)" (a pin fault over ambient weak cells).
func ScenarioBySpec(spec string) (FaultScenario, error) {
	return faults.NewScenario(spec)
}

// FaultSpecHelp returns the full fault-scenario listing the cmd binaries
// print for -list-faults.
func FaultSpecHelp() string {
	return faults.ListFaultsText()
}

// MemoryProfile is a registered memory-generation profile — timing table,
// burst length, channel geometry, refresh mode and page policy — from
// the profile registry (internal/memsim).
type MemoryProfile = memsim.Profile

// ProfileBySpec builds a memory profile from a registry spec string,
//
//	name[:key=val,...]
//
// e.g. "ddr5-4800" or "ddr5-4800:policy=closed,channels=2".
func ProfileBySpec(spec string) (*MemoryProfile, error) {
	return memsim.NewProfile(spec)
}

// ProfileSpecHelp returns the full memory-profile listing the cmd
// binaries print for -list-profiles.
func ProfileSpecHelp() string {
	return memsim.ListProfilesText()
}
