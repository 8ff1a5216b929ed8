package memsim

import (
	"fmt"
	"strings"

	"pair/internal/dram"
	"pair/internal/registry"
)

// PagePolicy selects the controller's row-buffer management policy.
type PagePolicy int

const (
	// OpenPage leaves rows open after an access, betting on locality;
	// conflicting accesses pay an explicit PRE before the next ACT.
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access (RDA/WRA), betting
	// against locality; every access pays ACT but never a conflict PRE.
	ClosedPage
)

func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open"
	case ClosedPage:
		return "closed"
	}
	return fmt.Sprintf("PagePolicy(%d)", int(p))
}

// RefreshMode selects how refresh blocks command issue.
type RefreshMode int

const (
	// RefreshAllBank blocks every bank for tRFC at each tREFI boundary
	// (DDR4 REFab).
	RefreshAllBank RefreshMode = iota
	// RefreshSameBank staggers per-bank refreshes (DDR5 REFsb / LPDDR5
	// per-bank refresh): one bank is blocked for tRFCsb per slot while
	// the rest of the device keeps serving.
	RefreshSameBank
)

func (m RefreshMode) String() string {
	switch m {
	case RefreshAllBank:
		return "all-bank"
	case RefreshSameBank:
		return "same-bank"
	}
	return fmt.Sprintf("RefreshMode(%d)", int(m))
}

// Profile bundles everything the timing simulator needs to model one
// memory subsystem generation: the device organization (burst length,
// bank-group geometry), the timing table, the channel/subchannel count,
// the refresh mode and the page policy. Profiles are addressable by spec
// (`ddr5-4800:policy=closed,channels=2`) from every binary, in the spec
// grammar of internal/registry (see profilespec.go).
type Profile struct {
	// ID is the registered base profile identifier, e.g. "ddr5-4800".
	ID string

	// Org is the per-(sub)channel device organization. Its BurstLen
	// drives the data-bus occupancy of every access.
	Org    dram.Organization
	Timing Timing

	// Channels is the number of independent channels; Subchannels the
	// independent subchannels per channel (DDR5: two 32-bit subchannels
	// sharing the DIMM). Cache lines interleave across all of them.
	Channels    int
	Subchannels int

	Policy  PagePolicy
	Refresh RefreshMode

	// spec is the canonical spec this profile was built from (ID when
	// constructed at defaults).
	spec string
}

// Spec returns the canonical spec string of the profile (option keys
// sorted), stable under parse/canonical round-trips.
func (p *Profile) Spec() string {
	if p.spec == "" {
		return p.ID
	}
	return p.spec
}

// Buses returns the number of independent data buses (channels x
// subchannels); each has its own banks, CAS history and burst timeline.
func (p *Profile) Buses() int {
	b := p.Channels * p.Subchannels
	if b < 1 {
		return 1
	}
	return b
}

// BurstCycles returns the data-bus occupancy in cycles of one access of
// BurstLen+extra beats (DDR: two beats per command-clock cycle, rounded
// up).
func (p *Profile) BurstCycles(extraBeats int) int {
	beats := p.Org.BurstLen + extraBeats
	return (beats + 1) / 2
}

// NumBanks returns the banks per device (the REFsb stagger universe).
func (p *Profile) NumBanks() int { return p.Org.BankGroups * p.Org.BanksPerGrp }

// RefSlotPeriod returns the same-bank refresh slot period in cycles: one
// REFsb fires per slot, rotating through the banks, so every bank is
// refreshed once per NumBanks slots.
func (p *Profile) RefSlotPeriod() uint64 {
	return uint64(p.Timing.TREFI) / uint64(p.NumBanks())
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if err := p.Org.Validate(); err != nil {
		return err
	}
	switch {
	case p.Timing.NSPerCycle <= 0:
		return fmt.Errorf("memsim: profile %s: non-positive NSPerCycle", p.Spec())
	case p.Channels < 1 || p.Channels > 16:
		return fmt.Errorf("memsim: profile %s: channels %d out of range [1,16]", p.Spec(), p.Channels)
	case p.Subchannels < 1 || p.Subchannels > 4:
		return fmt.Errorf("memsim: profile %s: subchannels %d out of range [1,4]", p.Spec(), p.Subchannels)
	}
	if p.Refresh == RefreshSameBank {
		if p.Timing.TRFCSB <= 0 {
			return fmt.Errorf("memsim: profile %s: same-bank refresh needs TRFCSB > 0", p.Spec())
		}
		if p.RefSlotPeriod() == 0 {
			return fmt.Errorf("memsim: profile %s: tREFI too short for %d REFsb slots", p.Spec(), p.NumBanks())
		}
	}
	return nil
}

// Config returns a single-rank simulator configuration running this
// profile (seed 1, no ECC cost model).
func (p *Profile) Config() Config {
	return Config{Profile: p, Ranks: 1, Seed: 1}
}

// profileEntry is one registered profile: its listing description and
// the constructor of its defaults.
type profileEntry struct {
	ID          string
	Description string
	New         func() Profile
}

var profiles = registry.New[profileEntry]("memsim", "profile")

// register adds a profile to the registry (see registry.Add for the ID
// rules); it runs from init.
func register(e profileEntry) { profiles.Add(e.ID, e) }

// ProfileIDs returns the registered profile IDs, in registration order.
func ProfileIDs() []string { return profiles.IDs() }

func init() {
	register(profileEntry{
		ID:          "ddr4-2400",
		Description: "DDR4-2400R x16 channel: BL8, one 64-bit channel, all-bank refresh, open page (the study's baseline)",
		New: func() Profile {
			return Profile{
				ID:          "ddr4-2400",
				Org:         dram.DDR4x16(),
				Timing:      DDR4_2400(),
				Channels:    1,
				Subchannels: 1,
				Policy:      OpenPage,
				Refresh:     RefreshAllBank,
			}
		},
	})
	register(profileEntry{
		ID:          "ddr5-4800",
		Description: "DDR5-4800 channel: two independent 32-bit subchannels, BL16, same-bank refresh (REFsb), open page",
		New: func() Profile {
			return Profile{
				ID:          "ddr5-4800",
				Org:         dram.DDR5x16(),
				Timing:      DDR5_4800(),
				Channels:    1,
				Subchannels: 2,
				Policy:      OpenPage,
				Refresh:     RefreshSameBank,
			}
		},
	})
	register(profileEntry{
		ID:          "lpddr5-6400",
		Description: "LPDDR5-6400: two x16 channels, BL16, per-bank refresh, closed page (mobile-style controller)",
		New: func() Profile {
			return Profile{
				ID:          "lpddr5-6400",
				Org:         dram.LPDDR5x16(),
				Timing:      LPDDR5_6400(),
				Channels:    2,
				Subchannels: 1,
				Policy:      ClosedPage,
				Refresh:     RefreshSameBank,
			}
		},
	})
}

// ListProfilesText renders the profile registry as the text every CLI
// prints for -list-profiles: the spec grammar, one line per profile, a
// parameter table and the option keys. The output is deterministic; CI
// diffs it against the README profile table so docs cannot drift.
func ListProfilesText() string {
	var b strings.Builder
	b.WriteString("profile spec grammar: name[:key=val,...]   e.g. ddr5-4800:channels=2,policy=closed\n\n")

	b.WriteString("profiles\n")
	for _, e := range profiles.All() {
		fmt.Fprintf(&b, "  %-12s %s\n", e.ID, e.Description)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "%-12s %-9s %-6s %-6s %-10s %-7s %-9s %s\n",
		"profile", "ns/cycle", "BL", "buses", "refresh", "policy", "banks", "CL/tRCD/tRP/tRFC")
	for _, e := range profiles.All() {
		p := e.New()
		trfc := p.Timing.TRFC
		if p.Refresh == RefreshSameBank {
			trfc = p.Timing.TRFCSB
		}
		fmt.Fprintf(&b, "%-12s %-9.4g %-6d %-6d %-10s %-7s %dx%-6d %d/%d/%d/%d\n",
			e.ID, p.Timing.NSPerCycle, p.Org.BurstLen, p.Buses(), p.Refresh, p.Policy,
			p.Org.BankGroups, p.Org.BanksPerGrp,
			p.Timing.CL, p.Timing.TRCD, p.Timing.TRP, trfc)
	}

	b.WriteString("\noptions\n")
	for _, o := range profileOptions {
		fmt.Fprintf(&b, "  %-9s %s\n", o.Key, o.Doc)
	}
	return b.String()
}
