// Package schemes is the single registry of every ECC architecture the
// study evaluates. Each scheme registers itself once — with a canonical
// ID, descriptive metadata, the organizations it supports and an option
// hook — and every consumer (the pair facade, the reliability campaigns,
// the experiment tables, all five cmd/ binaries and the examples) builds
// schemes exclusively through the registry. Adding a new RS variant is
// one register call in builtin.go; no consumer layer changes.
//
// # Spec grammar
//
// A scheme spec is a one-line description of a scheme instance in the
// grammar of internal/registry:
//
//	name[@org][:key=val,...]
//
// where name is a registered scheme ID, org is a registered organization
// ID (defaulting to the scheme's natural organization) and the key=val
// options are interpreted by the scheme's constructor hook. Examples:
//
//	pair                    headline PAIR, RS(20,16) on DDR4 x16
//	pair@ddr5x16            the same code family on a DDR5 subchannel
//	pair:exp=4              PAIR expanded to RS(22,16), t=3
//	pair:spare=3.7          spared-PAIR: pins 3 and 7 of chip 0 erased
//	duo-rank@ddr4x8ecc      rank-level DUO on the 9-chip ECC DIMM
//
// New parses a spec with registry.Parse, resolves the organization and
// runs the scheme's hook.
//
// # Campaign identity
//
// CampaignID returns the frozen label the Monte-Carlo campaigns use for
// seed derivation and checkpoint file names. It is intentionally NOT the
// spec form: its format predates the registry and is kept byte-identical
// so existing checkpoint directories keep resuming (see CampaignID).
package schemes

import (
	"fmt"
	"slices"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/registry"
)

// Entry is one registered scheme: identity, presentation metadata, the
// organizations it can be built on and the constructor hook.
type Entry struct {
	// ID is the canonical scheme identifier ("pair", "duo-rank", ...).
	ID string
	// Description is a one-line summary for listings.
	Description string

	// Presentation metadata (the T1 configuration-table columns).
	Codec       string // code construction, e.g. "RS(20,16) expandable"
	Granularity string // protection granularity, e.g. "chip access"
	Alignment   string // symbol alignment, e.g. "pin"
	Corrects    string // guaranteed correction capability, e.g. "2 sym"
	BusChange   string // bus-protocol change, e.g. "BL8->BL9"

	// NoDBI marks schemes whose signaling occupies the Data Bus Inversion
	// encoding freedom (XED's catch-words), for the bus-energy model.
	NoDBI bool

	// Orgs lists the registered organization IDs the scheme supports;
	// DefaultOrg (which must appear in Orgs) is used when a spec names no
	// organization.
	Orgs       []string
	DefaultOrg string

	// Options documents the option keys the hook accepts; specs using any
	// other key are rejected before the hook runs.
	Options []registry.OptionDoc

	// New builds the scheme on an organization resolved from Orgs with
	// the spec's validated options.
	New func(org dram.Organization, opts map[string]string) (ecc.Scheme, error)
}

var schemeReg = registry.New[*Entry]("schemes", "scheme")

// register adds a scheme to the registry. It panics on a malformed
// entry: registration happens in init functions, where a panic is a
// build-time error.
func register(e Entry) {
	if !slices.Contains(e.Orgs, e.DefaultOrg) {
		panic(fmt.Sprintf("schemes: scheme %q default org %q not in supported set", e.ID, e.DefaultOrg))
	}
	for _, id := range e.Orgs {
		if _, err := orgReg.Lookup(id); err != nil {
			panic(fmt.Sprintf("schemes: scheme %q: %v", e.ID, err))
		}
	}
	schemeReg.Add(e.ID, &e)
}

// Lookup returns the entry registered under id.
func Lookup(id string) (*Entry, error) { return schemeReg.Lookup(id) }

// All returns every registered entry in registration order.
func All() []*Entry { return schemeReg.All() }

// CampaignID is the campaign/checkpoint identity of a scheme instance:
// the label component that salts every Monte-Carlo seed stream and names
// checkpoint files.
//
// Compatibility shim — the format is FROZEN. It predates the registry
// (it was reliability.schemeLabel) and deliberately stays byte-identical
// to it: "<name>-x<pins>-bl<burstlen>-c<chips>". Changing it would both
// orphan every existing checkpoint directory (labels name the files and
// must match on resume) and silently reseed every campaign (labels salt
// the shard RNG streams). Human-facing canonical identity is the spec
// form (registry.Spec.String / CanonicalSpec); machine campaign identity
// is this.
func CampaignID(s ecc.Scheme) string {
	org := s.Org()
	return fmt.Sprintf("%s-x%d-bl%d-c%d", s.Name(), org.Pins, org.BurstLen, org.ChipsPerRank)
}
